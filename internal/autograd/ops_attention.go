package autograd

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Attention is multi-head scaled dot-product attention over packed
// sentences, recorded as one tape node. q is [b·tq, d]; k and v are
// [b·tk, d]; all three are already projected. Sentence s's tq query rows
// attend over its own tk key/value rows, and head h reads columns
// [h·dh, (h+1)·dh) with dh = d/heads. The result is [b·tq, d], the heads'
// contexts side by side: the value an output projection consumes. With
// causal (self-attention, tq == tk) query row i attends to keys 0..i only.
//
// The node keeps the softmax probabilities, and backward computes dQ, dK
// and dV directly. The op equals the per-sentence, per-head op chain
// (SliceRows, SliceCols, Transpose, MatMul, Scale, a −1e9 causal mask
// Add, SoftmaxRows, MatMul, ConcatCols, ConcatRows) bit for bit:
//   - every product sums in ascending order from +0, as the GEMM does:
//     scores over the head's columns, context over keys, dAttn over
//     columns, dV and dK over query rows, dQ over keys;
//   - scale, softmax and its backward are per element or per row, in the
//     chain's operation order;
//   - the chain's `0 + x` gradient hops can only turn −0 into +0, and
//     every such value flows into a +0-seeded sum or into a final `+=`,
//     so the sign of zero never reaches an output;
//   - a causal row skips the keys after it: the mask makes exp underflow
//     to exactly 0 there, so the chain only adds exact zeros for them.
//
// Under a Float32 or BFloat16 tape the four products stage their operands
// as MatMul does: rounded to the compute dtype, accumulated in float32,
// widened back to float64. Scale and softmax stay float64, as in the chain.
func Attention(q, k, v *Var, b, tq, tk, heads int, causal bool) *Var {
	d := q.Value.Shape[len(q.Value.Shape)-1]
	if !sameShape(q.Value, []int{b * tq, d}) || !sameShape(k.Value, []int{b * tk, d}) || !sameShape(v.Value, []int{b * tk, d}) {
		panic(fmt.Sprintf("autograd: Attention shapes q %v k %v v %v for b=%d tq=%d tk=%d",
			q.Value.Shape, k.Value.Shape, v.Value.Shape, b, tq, tk))
	}
	if heads <= 0 || d%heads != 0 {
		panic(fmt.Sprintf("autograd: Attention heads %d must divide width %d", heads, d))
	}
	if causal && tq != tk {
		panic("autograd: causal attention requires tq == tk")
	}
	g := attnShape{b: b, tq: tq, tk: tk, heads: heads, d: d, dh: d / heads, causal: causal}
	g.scale = 1 / math.Sqrt(float64(g.dh))
	np := b * heads * tq * tk
	tp := tapeOf(q, k, v)
	if tp == nil {
		val := tensor.New(b*tq, d)
		g.forward(val.Data, q.Value.Data, k.Value.Data, v.Value.Data, make([]float64, np))
		return constResult(val)
	}
	nd := tp.node(attentionBack, q, k, v)
	nd.i0, nd.i1, nd.i2, nd.flag = tq, tk, heads, causal
	nd.buf = floatsCap(nd.buf, np)
	nd.buf2 = floatsCap(nd.buf2, 2*tk*g.dh+tk+g.dh)
	out := tp.result(nd, b*tq, d)
	if tp.dtype == tensor.Float64 {
		g.forward(out.Value.Data, q.Value.Data, k.Value.Data, v.Value.Data, nd.buf)
		return out
	}
	// Reduced-precision regime: the staged operands stay live in the node
	// for the backward products, as in MatMul.
	nd.back = attentionLPBack
	q32 := ensureF32(&nd.lpa, b*tq, d)
	k32 := ensureF32(&nd.lpb, b*tk, d)
	v32 := ensureF32(&nd.lpo, b*tk, d)
	q32.FromF64(q.Value, tp.dtype)
	k32.FromF64(k.Value, tp.dtype)
	v32.FromF64(v.Value, tp.dtype)
	ensureF32(&nd.lpda, b*tq, d)
	sc := ensureF32(&nd.lpdb, 2*tk*g.dh+2*tk)
	g.forwardLP(out.Value.Data, q32.Data, k32.Data, v32.Data, nd.buf, sc.Data[:tk], tp.dtype)
	return out
}

// AttendRow is one query row of one attention head: the scores of q
// against the first len(p) key rows, their softmax into p, and the
// probability-weighted sum of the value rows into ctx. q and ctx hold the
// head's dh columns; k and v start at the head's first column of key row
// 0 and advance d floats per row. Both sums run in ascending order from
// +0, so the row equals the GEMM's. It is the forward kernel of Attention
// and of the tape-free decoder (nn.MultiHeadAttention.Attend).
//
//mlperfvet:hotpath
func AttendRow(ctx, q, k, v, p []float64, d int, scale float64) {
	dh := len(q)
	for j := range p {
		kj := k[j*d : j*d+dh]
		s := 0.0
		for c, qv := range q {
			s += qv * kj[c]
		}
		p[j] = s * scale
	}
	tensor.SoftmaxRow(p, p)
	for c := range ctx {
		ctx[c] = 0
	}
	for j, pj := range p {
		vj := v[j*d : j*d+dh]
		for c, vv := range vj {
			ctx[c] += pj * vv
		}
	}
}

// attnShape is the geometry of one Attention call.
type attnShape struct {
	b, tq, tk, heads, d, dh int
	scale                   float64
	causal                  bool
}

// attnShapeOf rebuilds the geometry recorded on an Attention node.
func attnShapeOf(nd *node) attnShape {
	d := nd.a.Value.Shape[1]
	g := attnShape{b: nd.a.Value.Shape[0] / nd.i0, tq: nd.i0, tk: nd.i1, heads: nd.i2, d: d, dh: d / nd.i2, causal: nd.flag}
	g.scale = 1 / math.Sqrt(float64(g.dh))
	return g
}

// probs returns the probability row of sentence s, head h, query row i:
// one entry per key the row attends to.
func (g attnShape) probs(all []float64, s, h, i int) []float64 {
	off := ((s*g.heads+h)*g.tq + i) * g.tk
	if g.causal {
		return all[off : off+i+1]
	}
	return all[off : off+g.tk]
}

// forward is the float64 forward: every row through AttendRow, keeping
// the probabilities in probs.
//
//mlperfvet:hotpath
func (g attnShape) forward(out, q, k, v, probs []float64) {
	for s := 0; s < g.b; s++ {
		ks, vs := k[s*g.tk*g.d:], v[s*g.tk*g.d:]
		for h := 0; h < g.heads; h++ {
			lo := h * g.dh
			for i := 0; i < g.tq; i++ {
				r := (s*g.tq+i)*g.d + lo
				AttendRow(out[r:r+g.dh], q[r:r+g.dh], ks[lo:], vs[lo:], g.probs(probs, s, h, i), g.d, g.scale)
			}
		}
	}
}

// forwardLP is the reduced-precision forward over staged operands. pr is
// scratch for one row's probabilities rounded to the compute dtype.
//
//mlperfvet:hotpath
func (g attnShape) forwardLP(out []float64, q, k, v []float32, probs []float64, pr []float32, dt tensor.DType) {
	for s := 0; s < g.b; s++ {
		for h := 0; h < g.heads; h++ {
			kb := s*g.tk*g.d + h*g.dh // key row 0 of sentence s, head h
			for i := 0; i < g.tq; i++ {
				r := (s*g.tq+i)*g.d + h*g.dh
				qi := q[r : r+g.dh]
				p := g.probs(probs, s, h, i)
				for j := range p {
					kj := k[kb+j*g.d : kb+j*g.d+g.dh]
					acc := float32(0)
					for c, qv := range qi {
						acc += qv * kj[c]
					}
					p[j] = float64(acc) * g.scale
				}
				tensor.SoftmaxRow(p, p)
				p32 := pr[:len(p)]
				for j, x := range p {
					p32[j] = tensor.Narrow(x, dt)
				}
				for c := 0; c < g.dh; c++ {
					acc := float32(0)
					for j, x := range p32 {
						acc += x * v[kb+j*g.d+c]
					}
					out[r+c] = float64(acc)
				}
			}
		}
	}
}

// attentionBack is the float64 backward. Per sentence and head, dK and dV
// accumulate over query rows in scratch and are added to the operand
// gradients once; per query row, dQ accumulates over keys.
//
//mlperfvet:hotpath
func attentionBack(nd *node) {
	g := attnShapeOf(nd)
	q, k, v := nd.a, nd.b, nd.c
	gr, qv, kv, vv := nd.out.Grad.Data, q.Value.Data, k.Value.Data, v.Value.Data
	n := g.tk * g.dh
	dk, dv, da, dq := nd.buf2[:n], nd.buf2[n:2*n], nd.buf2[2*n:2*n+g.tk], nd.buf2[2*n+g.tk:2*n+g.tk+g.dh]
	for s := 0; s < g.b; s++ {
		for h := 0; h < g.heads; h++ {
			kb := s*g.tk*g.d + h*g.dh
			clear(dk)
			clear(dv)
			for i := 0; i < g.tq; i++ {
				r := (s*g.tq+i)*g.d + h*g.dh
				gi, qi := gr[r:r+g.dh], qv[r:r+g.dh]
				p := g.probs(nd.buf, s, h, i)
				// dAttn = dCtx·Vᵀ, the softmax row dot, and dV += pᵀ·dCtx.
				dot := 0.0
				for j, pj := range p {
					vj := vv[kb+j*g.d : kb+j*g.d+g.dh]
					a := 0.0
					for c, gc := range gi {
						a += gc * vj[c]
					}
					da[j] = a
					dot += a * pj
					dvj := dv[j*g.dh : (j+1)*g.dh]
					for c, gc := range gi {
						dvj[c] += pj * gc
					}
				}
				// dScores through softmax and scale; dQ = dScores·K and
				// dK += dScoresᵀ·Q.
				clear(dq)
				for j, pj := range p {
					x := g.scale * (pj * (da[j] - dot))
					kj := kv[kb+j*g.d : kb+j*g.d+g.dh]
					dkj := dk[j*g.dh : (j+1)*g.dh]
					for c, qc := range qi {
						dq[c] += x * kj[c]
						dkj[c] += qc * x
					}
				}
				if q.tape != nil {
					addTo(q.Grad.Data[r:r+g.dh], dq)
				}
			}
			g.addHead(k, dk, kb)
			g.addHead(v, dv, kb)
		}
	}
}

// attentionLPBack is the reduced-precision backward: the four gradient
// products stage their operands to the compute dtype and accumulate in
// float32, as matMulLPBack's do; softmax and scale stay float64.
//
//mlperfvet:hotpath
func attentionLPBack(nd *node) {
	g := attnShapeOf(nd)
	q, k, v := nd.a, nd.b, nd.c
	dt := nd.tape.dtype
	nd.lpda.FromF64(nd.out.Grad, dt)
	gr, qv, kv, vv := nd.lpda.Data, nd.lpa.Data, nd.lpb.Data, nd.lpo.Data
	n := g.tk * g.dh
	sc := nd.lpdb.Data
	dk, dv, pr, ds := sc[:n], sc[n:2*n], sc[2*n:2*n+g.tk], sc[2*n+g.tk:2*n+2*g.tk]
	da, wide := nd.buf2[:g.tk], nd.buf2[g.tk:g.tk+n]
	for s := 0; s < g.b; s++ {
		for h := 0; h < g.heads; h++ {
			kb := s*g.tk*g.d + h*g.dh
			clear(dk)
			clear(dv)
			for i := 0; i < g.tq; i++ {
				r := (s*g.tq+i)*g.d + h*g.dh
				gi, qi := gr[r:r+g.dh], qv[r:r+g.dh]
				p := g.probs(nd.buf, s, h, i)
				p32, ds32 := pr[:len(p)], ds[:len(p)]
				for j, x := range p {
					p32[j] = tensor.Narrow(x, dt)
				}
				dot := 0.0
				for j, x := range p {
					vj := vv[kb+j*g.d : kb+j*g.d+g.dh]
					a := float32(0)
					for c, gc := range gi {
						a += gc * vj[c]
					}
					da[j] = float64(a)
					dot += da[j] * x
					dvj := dv[j*g.dh : (j+1)*g.dh]
					for c, gc := range gi {
						dvj[c] += p32[j] * gc
					}
				}
				for j, x := range p {
					ds32[j] = tensor.Narrow(g.scale*(x*(da[j]-dot)), dt)
				}
				if q.tape != nil {
					qg := q.Grad.Data[r : r+g.dh]
					for c := range qg {
						acc := float32(0)
						for j, x := range ds32 {
							acc += x * kv[kb+j*g.d+c]
						}
						qg[c] += float64(acc)
					}
				}
				for j, x := range ds32 {
					dkj := dk[j*g.dh : (j+1)*g.dh]
					for c, qc := range qi {
						dkj[c] += qc * x
					}
				}
			}
			widen(wide, dk)
			g.addHead(k, wide, kb)
			widen(wide, dv)
			g.addHead(v, wide, kb)
		}
	}
}

// addHead adds one sentence and head's [tk, dh] gradient block to a's
// gradient, starting at flat offset kb with row stride d.
//
//mlperfvet:hotpath
func (g attnShape) addHead(a *Var, blk []float64, kb int) {
	if a.tape == nil {
		return
	}
	for j := 0; j < g.tk; j++ {
		addTo(a.Grad.Data[kb+j*g.d:kb+j*g.d+g.dh], blk[j*g.dh:(j+1)*g.dh])
	}
}

// addTo accumulates src into dst elementwise.
func addTo(dst, src []float64) {
	for i, x := range src {
		dst[i] += x
	}
}

// widen copies float32 values into float64 (exact).
func widen(dst []float64, src []float32) {
	for i, x := range src {
		dst[i] = float64(x)
	}
}
