package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// causalMask returns a [t,t] constant with -1e9 above the diagonal, which
// zeroes future positions after softmax.
func causalMask(t int) *tensor.Tensor {
	m := tensor.New(t, t)
	for i := 0; i < t; i++ {
		for j := i + 1; j < t; j++ {
			m.Data[i*t+j] = -1e9
		}
	}
	return m
}

// attentionChainRef is the attention MultiHeadAttention.Forward recorded
// before autograd.Attention existed: per sentence and head, the slices,
// score product, scale, causal mask, softmax and weighted sum are separate
// tape ops, and the heads and sentences are concatenated back. It takes
// the projected qp [b*tq, d] and kp, vp [b*tk, d] and returns the context
// Wo consumes. autograd.Attention must match it bit for bit.
func attentionChainRef(qp, kp, vp *autograd.Var, b, tq, tk, heads int, causal bool) *autograd.Var {
	dh := qp.Value.Shape[1] / heads
	scale := 1 / math.Sqrt(float64(dh))

	var mask *autograd.Var
	if causal {
		if tq != tk {
			panic("nn: causal attention requires tq == tk")
		}
		mask = autograd.Const(causalMask(tq))
	}

	batchOuts := make([]*autograd.Var, 0, b)
	for bi := 0; bi < b; bi++ {
		qb := autograd.SliceRows(qp, bi*tq, (bi+1)*tq)
		kb := autograd.SliceRows(kp, bi*tk, (bi+1)*tk)
		vb := autograd.SliceRows(vp, bi*tk, (bi+1)*tk)
		headOuts := make([]*autograd.Var, 0, heads)
		for h := 0; h < heads; h++ {
			qh := autograd.SliceCols(qb, h*dh, (h+1)*dh)
			kh := autograd.SliceCols(kb, h*dh, (h+1)*dh)
			vh := autograd.SliceCols(vb, h*dh, (h+1)*dh)
			scores := autograd.Scale(autograd.MatMul(qh, autograd.Transpose(kh)), scale)
			if mask != nil {
				scores = autograd.Add(scores, mask)
			}
			attn := autograd.SoftmaxRows(scores)
			headOuts = append(headOuts, autograd.MatMul(attn, vh))
		}
		batchOuts = append(batchOuts, autograd.ConcatCols(headOuts...))
	}
	return autograd.ConcatRows(batchOuts...)
}

// attnCase is one attention geometry of the oracle sweep.
type attnCase struct {
	b, tq, tk, heads, d int
	causal              bool
}

// attnInputs are one case's operands and upstream gradient. std scales
// q and k: large values saturate the softmax, so some probabilities are
// exactly 0 in non-causal rows too. A few entries are signed zeros.
func attnInputs(c attnCase, seed uint64, std float64) (q, k, v, up *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	q = tensor.Randn(rng, std, c.b*c.tq, c.d)
	k = tensor.Randn(rng, std, c.b*c.tk, c.d)
	v = tensor.Randn(rng, 1, c.b*c.tk, c.d)
	up = tensor.Randn(rng, 1, c.b*c.tq, c.d)
	negZero := math.Copysign(0, -1)
	for i := 0; i < len(up.Data); i += 7 {
		up.Data[i] = negZero
	}
	for i := 3; i < len(up.Data); i += 11 {
		up.Data[i] = 0
	}
	for i := 5; i < len(q.Data); i += 13 {
		q.Data[i] = negZero
	}
	return q, k, v, up
}

// attnResult is an attention call's output and its operands' gradients.
type attnResult struct{ out, dq, dk, dv []float64 }

// runAttention records attention (the fused op or the chain) on a tape of
// the given dtype, seeds its output gradient with up and runs backward.
// With pre, q, k and v already hold gradients, and a second consumer of
// each, recorded first, adds its gradient after the attention's.
func runAttention(chain bool, dt tensor.DType, c attnCase, q, k, v, up *tensor.Tensor, pre bool) attnResult {
	tape := autograd.NewTape()
	tape.SetDType(dt)
	vars := []*autograd.Var{tape.Leaf(q), tape.Leaf(k), tape.Leaf(v)}
	var others []*autograd.Var
	if pre {
		rng := tensor.NewRNG(99)
		for _, x := range vars {
			copy(x.Grad.Data, tensor.Randn(rng, 1, x.Value.Shape...).Data)
			others = append(others, autograd.Scale(x, 0.75))
		}
	}
	var out *autograd.Var
	if chain {
		out = attentionChainRef(vars[0], vars[1], vars[2], c.b, c.tq, c.tk, c.heads, c.causal)
	} else {
		out = autograd.Attention(vars[0], vars[1], vars[2], c.b, c.tq, c.tk, c.heads, c.causal)
	}
	copy(out.Grad.Data, up.Data)
	for i, o := range others {
		copy(o.Grad.Data, tensor.Randn(tensor.NewRNG(uint64(200+i)), 1, o.Value.Shape...).Data)
	}
	tape.BackwardSeeded()
	return attnResult{out.Value.Data, vars[0].Grad.Data, vars[1].Grad.Data, vars[2].Grad.Data}
}

// firstBitDiff returns the first index where a and b differ in bits, or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// The fused autograd.Attention equals the retained per-sentence, per-head
// op chain bit for bit — output and q/k/v gradients — for self- and
// cross-attention, causal or not, 1 to 16 sentences, 1 to 3 heads (odd
// head widths included), on Float64, Float32 and BFloat16 tapes, with and
// without gradients already accumulated on the operands.
func TestAttentionMatchesChainRef(t *testing.T) {
	widths := map[int][]int{1: {7}, 2: {10, 24}, 3: {9}}
	var cases []attnCase
	for _, b := range []int{1, 3, 16} {
		for _, heads := range []int{1, 2, 3} {
			for _, d := range widths[heads] {
				cases = append(cases,
					attnCase{b, 9, 9, heads, d, false},
					attnCase{b, 9, 9, heads, d, true},
					attnCase{b, 6, 4, heads, d, false},
					attnCase{b, 3, 7, heads, d, false})
			}
		}
	}
	dtypes := []tensor.DType{tensor.Float64, tensor.Float32, tensor.BFloat16}
	for ci, c := range cases {
		for _, dt := range dtypes {
			for _, std := range []float64{1, 12} {
				for _, pre := range []bool{false, true} {
					name := fmt.Sprintf("%+v/%v/std=%v/pre=%v", c, dt, std, pre)
					q, k, v, up := attnInputs(c, uint64(ci+1), std)
					want := runAttention(true, dt, c, q, k, v, up, pre)
					got := runAttention(false, dt, c, q, k, v, up, pre)
					for _, x := range []struct {
						what      string
						got, want []float64
					}{{"output", got.out, want.out}, {"dq", got.dq, want.dq}, {"dk", got.dk, want.dk}, {"dv", got.dv, want.dv}} {
						if i := firstBitDiff(x.got, x.want); i >= 0 {
							t.Fatalf("%s: %s differs at %d: fused %v, chain %v", name, x.what, i, x.got[i], x.want[i])
						}
					}
				}
			}
		}
	}
}

// Positional.Add equals adding a table tiled over the batch (the old
// AddPositional) bit for bit, forward and backward, and allocates nothing
// on a warm tape.
func TestPositionalAddMatchesTiledTable(t *testing.T) {
	const b, tt, d = 3, 5, 6
	pos := NewPositional(9, d)
	rng := tensor.NewRNG(4)
	x := tensor.Randn(rng, 1, b*tt, d)
	up := tensor.Randn(rng, 1, b*tt, d)
	run := func(tiled bool) (out, dx []float64) {
		tape := autograd.NewTape()
		xv := tape.Leaf(x)
		var y *autograd.Var
		if tiled {
			pe := PositionalEncoding(tt, d)
			full := tensor.New(b*tt, d)
			for bi := 0; bi < b; bi++ {
				copy(full.Data[bi*tt*d:(bi+1)*tt*d], pe.Data)
			}
			y = autograd.Add(xv, autograd.Const(full))
		} else {
			y = pos.Add(xv, b, tt)
		}
		copy(y.Grad.Data, up.Data)
		tape.BackwardSeeded()
		return y.Value.Data, xv.Grad.Data
	}
	wantOut, wantDx := run(true)
	gotOut, gotDx := run(false)
	if !bitsEqual(gotOut, wantOut) || !bitsEqual(gotDx, wantDx) {
		t.Fatal("Positional.Add differs from adding the tiled table")
	}

	tape := autograd.NewTape()
	xv := tape.Leaf(x)
	pos.Add(xv, b, tt)
	if n := testing.AllocsPerRun(10, func() {
		tape.Reset()
		pos.Add(xv, b, tt)
	}); n != 0 {
		t.Fatalf("warm Positional.Add allocates %v times", n)
	}
}
