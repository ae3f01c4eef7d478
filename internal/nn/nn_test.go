package nn

import (
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

func ctx(train bool) *Ctx {
	return NewCtx(autograd.NewTape(), train, tensor.NewRNG(1))
}

func TestLinearShapesAndBias(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("l", 4, 3, true, rng)
	c := ctx(true)
	y := l.Forward(c, autograd.Const(tensor.Randn(rng, 1, 5, 4)))
	if y.Value.Shape[0] != 5 || y.Value.Shape[1] != 3 {
		t.Fatalf("linear output shape %v", y.Value.Shape)
	}
	if len(l.Params()) != 2 {
		t.Fatal("linear with bias has 2 params")
	}
	nb := NewLinear("nb", 4, 3, false, rng)
	if len(nb.Params()) != 1 {
		t.Fatal("bias-free linear has 1 param")
	}
}

func TestLinearGradientFlowsToParams(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewLinear("l", 2, 2, true, rng)
	c := ctx(true)
	y := l.Forward(c, autograd.Const(tensor.Ones(3, 2)))
	c.Tape.Backward(autograd.Sum(y))
	if l.W.Grad.Norm2() == 0 || l.B.Grad.Norm2() == 0 {
		t.Fatal("gradients should reach both weight and bias")
	}
}

func TestConv2dShapes(t *testing.T) {
	rng := tensor.NewRNG(4)
	conv := NewConv2d("c", 3, 8, 3, 2, 1, false, rng)
	c := ctx(true)
	y := conv.Forward(c, autograd.Const(tensor.Randn(rng, 1, 2, 3, 8, 8)))
	want := []int{2, 8, 4, 4}
	for i, d := range want {
		if y.Value.Shape[i] != d {
			t.Fatalf("conv output shape %v want %v", y.Value.Shape, want)
		}
	}
}

func TestBatchNormNormalizesBatch(t *testing.T) {
	rng := tensor.NewRNG(5)
	bn := NewBatchNorm2d("bn", 2)
	c := ctx(true)
	x := tensor.Randn(rng, 3, 8, 2, 4, 4)
	y := bn.Forward(c, autograd.Const(x))
	// Per-channel mean ≈ 0, var ≈ 1 in train mode with gamma=1, beta=0.
	for ch := 0; ch < 2; ch++ {
		sum, sumSq, n := 0.0, 0.0, 0
		for in := 0; in < 8; in++ {
			for p := 0; p < 16; p++ {
				v := y.Value.At(in, ch, p/4, p%4)
				sum += v
				sumSq += v * v
				n++
			}
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d not normalized: mean=%v var=%v", ch, mean, variance)
		}
	}
}

func TestLayerNormRows(t *testing.T) {
	ln := NewLayerNorm("ln", 6)
	c := ctx(true)
	rng := tensor.NewRNG(6)
	y := ln.Forward(c, autograd.Const(tensor.Randn(rng, 5, 4, 6)))
	for i := 0; i < 4; i++ {
		row := y.Value.Row(i)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= 6
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("row %d mean %v", i, mean)
		}
	}
}

func TestEmbeddingGather(t *testing.T) {
	rng := tensor.NewRNG(7)
	e := NewEmbedding("e", 10, 4, rng)
	c := ctx(true)
	y := e.Forward(c, []int{3, 3, 7})
	if y.Value.Shape[0] != 3 || y.Value.Shape[1] != 4 {
		t.Fatalf("embedding shape %v", y.Value.Shape)
	}
	for j := 0; j < 4; j++ {
		if y.Value.At(0, j) != y.Value.At(1, j) {
			t.Fatal("same id must produce the same row")
		}
		if y.Value.At(0, j) != e.Table.Value.At(3, j) {
			t.Fatal("row must equal the table row")
		}
	}
}

func TestMLPForwardAndParams(t *testing.T) {
	rng := tensor.NewRNG(8)
	m := NewMLP("m", []int{4, 8, 2}, rng)
	if len(m.Params()) != 4 {
		t.Fatalf("2-layer MLP should have 4 params, got %d", len(m.Params()))
	}
	c := ctx(true)
	y := m.Forward(c, autograd.Const(tensor.Randn(rng, 1, 3, 4)))
	if y.Value.Shape[1] != 2 {
		t.Fatalf("mlp output %v", y.Value.Shape)
	}
}

func TestLSTMStep(t *testing.T) {
	rng := tensor.NewRNG(9)
	l := NewLSTM("l", 3, 5, rng)
	c := ctx(true)
	s := l.ZeroState(2)
	x := autograd.Const(tensor.Randn(rng, 1, 2, 3))
	s2 := l.Step(c, x, s)
	if s2.H.Value.Shape[0] != 2 || s2.H.Value.Shape[1] != 5 {
		t.Fatalf("lstm H shape %v", s2.H.Value.Shape)
	}
	// Cell state must be bounded by tanh dynamics early on.
	for _, v := range s2.H.Value.Data {
		if v < -1 || v > 1 {
			t.Fatalf("h out of tanh bound: %v", v)
		}
	}
	// Forget bias trick: B[hidden:2*hidden] initialized to 1.
	if l.B.Value.Data[5] != 1 || l.B.Value.Data[9] != 1 {
		t.Fatal("forget gate bias should be 1")
	}
	if l.B.Value.Data[0] != 0 {
		t.Fatal("input gate bias should be 0")
	}
}

func TestStackedLSTMResidual(t *testing.T) {
	rng := tensor.NewRNG(10)
	s := NewStackedLSTM("s", 4, 4, 3, true, rng)
	c := ctx(true)
	states := s.ZeroState(2)
	x := autograd.Const(tensor.Randn(rng, 1, 2, 4))
	out, next := s.Step(c, x, states)
	if out.Value.Shape[1] != 4 || len(next) != 3 {
		t.Fatalf("stacked output %v, states %d", out.Value.Shape, len(next))
	}
	if len(s.Params()) != 9 {
		t.Fatalf("3 cells x 3 params = 9, got %d", len(s.Params()))
	}
}

func TestMultiHeadAttentionShapes(t *testing.T) {
	rng := tensor.NewRNG(11)
	m := NewMultiHeadAttention("a", 8, 2, rng)
	c := ctx(true)
	b, tq, tk := 2, 3, 5
	q := autograd.Const(tensor.Randn(rng, 1, b*tq, 8))
	kv := autograd.Const(tensor.Randn(rng, 1, b*tk, 8))
	y := m.Forward(c, q, kv, b, tq, tk, false)
	if y.Value.Shape[0] != b*tq || y.Value.Shape[1] != 8 {
		t.Fatalf("attention output %v", y.Value.Shape)
	}
}

func TestCausalMaskBlocksFuture(t *testing.T) {
	rng := tensor.NewRNG(12)
	m := NewMultiHeadAttention("a", 4, 1, rng)
	b, tt := 1, 4
	// Two inputs differing only at the last position must produce the same
	// outputs at earlier positions under causal attention.
	x1 := tensor.Randn(rng, 1, b*tt, 4)
	x2 := x1.Clone()
	for j := 0; j < 4; j++ {
		x2.Set(x2.At(tt-1, j)+5, tt-1, j)
	}
	c1 := ctx(false)
	y1 := m.Forward(c1, autograd.Const(x1), autograd.Const(x1), b, tt, tt, true)
	c2 := ctx(false)
	y2 := m.Forward(c2, autograd.Const(x2), autograd.Const(x2), b, tt, tt, true)
	for pos := 0; pos < tt-1; pos++ {
		for j := 0; j < 4; j++ {
			if math.Abs(y1.Value.At(pos, j)-y2.Value.At(pos, j)) > 1e-9 {
				t.Fatalf("causal mask leaked future information at position %d", pos)
			}
		}
	}
}

func TestMultiHeadAttentionRequiresDivisibility(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiHeadAttention("a", 7, 2, tensor.NewRNG(1))
}

func TestPositionalEncodingProperties(t *testing.T) {
	pe := PositionalEncoding(10, 8)
	// Bounded in [-1, 1] and position-distinguishing.
	for _, v := range pe.Data {
		if v < -1 || v > 1 {
			t.Fatalf("pe out of range: %v", v)
		}
	}
	same := true
	for j := 0; j < 8; j++ {
		if pe.At(0, j) != pe.At(5, j) {
			same = false
		}
	}
	if same {
		t.Fatal("positions 0 and 5 must differ")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := autograd.NewParam("p", tensor.New(4))
	copy(p.Grad.Data, []float64{3, 4, 0, 0}) // norm 5
	pre := ClipGradNorm([]*autograd.Param{p}, 1.0)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	if math.Abs(GradNorm([]*autograd.Param{p})-1) > 1e-12 {
		t.Fatalf("post-clip norm %v", GradNorm([]*autograd.Param{p}))
	}
	// Below the threshold: untouched.
	pre2 := ClipGradNorm([]*autograd.Param{p}, 10)
	if math.Abs(pre2-1) > 1e-12 {
		t.Fatal("second clip should be a no-op")
	}
}

func TestNumParamsAndCollect(t *testing.T) {
	rng := tensor.NewRNG(13)
	l := NewLinear("l", 3, 2, true, rng)
	if NumParams(l) != 3*2+2 {
		t.Fatalf("NumParams = %d", NumParams(l))
	}
	l2 := NewLinear("l2", 2, 2, false, rng)
	if len(CollectParams(l, l2)) != 3 {
		t.Fatal("CollectParams should flatten")
	}
}

func TestZeroGrads(t *testing.T) {
	p := autograd.NewParam("p", tensor.New(2))
	p.Grad.Data[0] = 5
	ZeroGrads([]*autograd.Param{p})
	if p.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrads failed")
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := tensor.NewRNG(14)
	bn := NewBatchNorm2d("bn", 1)
	// Train once on shifted data so running stats move.
	c := ctx(true)
	x := tensor.Apply(tensor.Randn(rng, 1, 8, 1, 2, 2), func(v float64) float64 { return v + 10 })
	bn.Forward(c, autograd.Const(x))
	if bn.RunMean.Data[0] == 0 {
		t.Fatal("running mean should move")
	}
	// Eval output must use the running stats, not batch stats.
	ce := ctx(false)
	y := bn.Forward(ce, autograd.Const(tensor.Full(10, 1, 1, 1, 1)))
	want := (10 - bn.RunMean.Data[0]) / math.Sqrt(bn.RunVar.Data[0]+bn.Eps)
	if math.Abs(y.Value.Data[0]-want) > 1e-9 {
		t.Fatalf("eval BN: got %v want %v", y.Value.Data[0], want)
	}
}

// bitsEqual reports whether two float slices hold identical bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The tape-free kernels must reproduce the tape layers' values bit for
// bit, for a row alone as well as for a full matrix.
func TestApplyIntoMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(11)
	x := tensor.Randn(rng, 1, 5, 6)
	l := NewLinear("l", 6, 4, true, rng)
	l.B.Value = tensor.Randn(rng, 1, 4)
	want := l.Forward(ctx(false), autograd.Const(x)).Value
	y := tensor.New(5, 4)
	l.ApplyInto(y, x)
	if !bitsEqual(y.Data, want.Data) {
		t.Fatal("Linear.ApplyInto differs from Forward")
	}
	row := tensor.New(1, 4)
	l.ApplyInto(row, tensor.FromSlice(x.Data[2*6:3*6], 1, 6))
	if !bitsEqual(row.Data, want.Data[2*4:3*4]) {
		t.Fatal("Linear.ApplyInto on one row differs from Forward's row")
	}

	ln := NewLayerNorm("ln", 6)
	ln.Gamma.Value = tensor.Randn(rng, 1, 6)
	wantLN := ln.Forward(ctx(false), autograd.Const(x)).Value
	yLN := x.Clone()
	ln.ApplyInto(yLN, yLN)
	if !bitsEqual(yLN.Data, wantLN.Data) {
		t.Fatal("LayerNorm.ApplyInto differs from Forward")
	}
}

// Attend over cached keys/values equals Forward's causal rows (nk = t+1)
// and its full rows (nk = tk), per sequence of a packed batch.
func TestAttendMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(12)
	const b, tq, d = 2, 5, 8
	m := NewMultiHeadAttention("a", d, 2, rng)
	x := tensor.Randn(rng, 1, b*tq, d)
	q, k, v := tensor.New(b*tq, d), tensor.New(b*tq, d), tensor.New(b*tq, d)
	m.Wq.ApplyInto(q, x)
	m.Wk.ApplyInto(k, x)
	m.Wv.ApplyInto(v, x)
	for _, causal := range []bool{false, true} {
		want := m.Forward(ctx(false), autograd.Const(x), autograd.Const(x), b, tq, tq, causal).Value
		att, got := tensor.New(b*tq, d), tensor.New(b*tq, d)
		scores := make([]float64, tq)
		for s := 0; s < b; s++ {
			seq := s * tq * d
			for i := 0; i < tq; i++ {
				nk := tq
				if causal {
					nk = i + 1
				}
				r := seq + i*d
				m.Attend(att.Data[r:r+d], q.Data[r:r+d], k.Data[seq:], v.Data[seq:], 1, nk, scores)
			}
		}
		m.Wo.ApplyInto(got, att)
		if !bitsEqual(got.Data, want.Data) {
			t.Fatalf("causal=%v: Attend + Wo differs from Forward", causal)
		}
	}
}
