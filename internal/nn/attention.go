package nn

import (
	"math"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// MultiHeadAttention implements the scaled dot-product attention of the
// Transformer benchmark (§3.1.3, Vaswani et al.). Sequences are packed as
// [B*T, d] matrices with explicit batch/sequence sizes at call time.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Linear
	Heads, DModel  int
}

// NewMultiHeadAttention builds an attention block with heads dividing dModel.
func NewMultiHeadAttention(name string, dModel, heads int, rng *tensor.RNG) *MultiHeadAttention {
	if dModel%heads != 0 {
		panic("nn: heads must divide dModel")
	}
	return &MultiHeadAttention{
		Wq:     NewLinearXavier(name+".wq", dModel, dModel, true, rng),
		Wk:     NewLinearXavier(name+".wk", dModel, dModel, true, rng),
		Wv:     NewLinearXavier(name+".wv", dModel, dModel, true, rng),
		Wo:     NewLinearXavier(name+".wo", dModel, dModel, true, rng),
		Heads:  heads,
		DModel: dModel,
	}
}

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

// Forward computes attention with queries from q [b*tq, d] and keys/values
// from kv [b*tk, d]. Self-attention passes q == kv; decoder self-attention
// additionally sets causal. Cross-attention passes encoder memory as kv.
func (m *MultiHeadAttention) Forward(ctx *Ctx, q, kv *autograd.Var, b, tq, tk int, causal bool) *autograd.Var {
	dh := m.DModel / m.Heads
	scale := 1 / math.Sqrt(float64(dh))

	qp := m.Wq.Forward(ctx, q)
	kp := m.Wk.Forward(ctx, kv)
	vp := m.Wv.Forward(ctx, kv)

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
		headOuts := make([]*autograd.Var, 0, m.Heads)
		for h := 0; h < m.Heads; h++ {
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
	out := autograd.ConcatRows(batchOuts...)
	return m.Wo.Forward(ctx, out)
}

// Attend is attention's tape-free core for cached keys and values. Each
// of the nq query rows of q attends over the first nk rows of k and v,
// and the per-head contexts land side by side in the matching row of
// ctx: the value Forward hands its output projection Wo. q, k and v are
// rows of one sequence, already projected by Wq, Wk and Wv; rows are
// DModel wide. scores is a workspace of at least nk floats.
//
// The result equals Forward's rows bit for bit. A score row is the
// ascending-k dot product scaled by 1/sqrt(dh), as in the GEMM, and the
// context sums attention-weighted values in ascending key order. For a
// causal row t, pass nk = t+1: Forward's −1e9 mask makes exp underflow to
// exactly 0 on later keys, so its softmax sum and weighted values only
// add exact zeros there.
//
//mlperfvet:hotpath
func (m *MultiHeadAttention) Attend(ctx, q, k, v []float64, nq, nk int, scores []float64) {
	d := m.DModel
	dh := d / m.Heads
	scale := 1 / math.Sqrt(float64(dh))
	p := scores[:nk]
	for i := 0; i < nq; i++ {
		for h := 0; h < m.Heads; h++ {
			lo := h * dh
			qh := q[i*d+lo : i*d+lo+dh]
			for j := range p {
				kh := k[j*d+lo : j*d+lo+dh]
				s := 0.0
				for c, qv := range qh {
					s += qv * kh[c]
				}
				p[j] = s * scale
			}
			tensor.SoftmaxRow(p, p)
			out := ctx[i*d+lo : i*d+lo+dh]
			for c := range out {
				out[c] = 0
			}
			for j, pj := range p {
				vh := v[j*d+lo : j*d+lo+dh]
				for c, vv := range vh {
					out[c] += pj * vv
				}
			}
		}
	}
}

// Params implements Module.
func (m *MultiHeadAttention) Params() []*autograd.Param {
	return CollectParams(m.Wq, m.Wk, m.Wv, m.Wo)
}

// PositionalEncoding returns the sinusoidal position table [t, d] from
// "Attention Is All You Need", added to token embeddings.
func PositionalEncoding(t, d int) *tensor.Tensor {
	pe := tensor.New(t, d)
	for pos := 0; pos < t; pos++ {
		for i := 0; i < d; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(d))
			if i%2 == 0 {
				pe.Data[pos*d+i] = math.Sin(angle)
			} else {
				pe.Data[pos*d+i] = math.Cos(angle)
			}
		}
	}
	return pe
}

// AddPositional adds the positional encoding to a packed [b*t, d] batch.
func AddPositional(x *autograd.Var, b, t, d int) *autograd.Var {
	pe := PositionalEncoding(t, d)
	full := tensor.New(b*t, d)
	for bi := 0; bi < b; bi++ {
		copy(full.Data[bi*t*d:(bi+1)*t*d], pe.Data)
	}
	return autograd.Add(x, autograd.Const(full))
}
