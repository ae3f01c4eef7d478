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

// Forward computes attention with queries from q [b*tq, d] and keys/values
// from kv [b*tk, d]. Self-attention passes q == kv; decoder self-attention
// additionally sets causal. Cross-attention passes encoder memory as kv.
// The attention itself, over every sentence and head, is one
// autograd.Attention node between the projections.
func (m *MultiHeadAttention) Forward(ctx *Ctx, q, kv *autograd.Var, b, tq, tk int, causal bool) *autograd.Var {
	qp := m.Wq.Forward(ctx, q)
	kp := m.Wk.Forward(ctx, kv)
	vp := m.Wv.Forward(ctx, kv)
	return m.Wo.Forward(ctx, autograd.Attention(qp, kp, vp, b, tq, tk, m.Heads, causal))
}

// Attend is attention's tape-free core for cached keys and values. Each
// of the nq query rows of q attends over the first nk rows of k and v,
// and the per-head contexts land side by side in the matching row of
// ctx: the value Forward hands its output projection Wo. q, k and v are
// rows of one sequence, already projected by Wq, Wk and Wv; rows are
// DModel wide. scores is a workspace of at least nk floats.
//
// The result equals Forward's rows bit for bit: both run every row and
// head through autograd.AttendRow. For a causal row t, pass nk = t+1, as
// Forward's causal rows do.
//
//mlperfvet:hotpath
func (m *MultiHeadAttention) Attend(ctx, q, k, v []float64, nq, nk int, scores []float64) {
	d := m.DModel
	dh := d / m.Heads
	scale := 1 / math.Sqrt(float64(dh))
	for i := 0; i < nq; i++ {
		for lo := 0; lo < d; lo += dh {
			r := i*d + lo
			autograd.AttendRow(ctx[r:r+dh], q[r:r+dh], k[lo:], v[lo:], scores[:nk], d, scale)
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

// Positional adds the sinusoidal position table to packed token
// embeddings. It is built once per model for up to maxT positions, so
// adding it allocates nothing.
type Positional struct {
	Table *tensor.Tensor  // PositionalEncoding(maxT, d)
	rows  []*autograd.Var // rows[t]: the table's first t rows as one [t*d] constant
}

// NewPositional builds the table for up to maxT positions of width d.
func NewPositional(maxT, d int) *Positional {
	pe := PositionalEncoding(maxT, d)
	p := &Positional{Table: pe, rows: make([]*autograd.Var, maxT+1)}
	for t := 1; t <= maxT; t++ {
		p.rows[t] = autograd.Const(tensor.FromSlice(pe.Data[:t*d], t*d))
	}
	return p
}

// Add adds the encoding of positions 0..t-1 to each of the b sentences of
// a packed [b*t, d] batch. Seen as [b, t*d], the batch takes the first t
// table rows as one broadcast row vector, so each element gets exactly
// the x + pe addition of a tiled table.
func (p *Positional) Add(x *autograd.Var, b, t int) *autograd.Var {
	if t < 1 || t >= len(p.rows) {
		panic("nn: sequence longer than the positional table")
	}
	d := p.Table.Shape[1]
	y := autograd.AddRowVec(autograd.Reshape(x, b, t*d), p.rows[t])
	return autograd.Reshape(y, b*t, d)
}
