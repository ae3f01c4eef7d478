package autograd

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// gradCheck verifies analytic gradients against central finite differences.
// build must construct a scalar loss from fresh Leaf vars wrapping the given
// tensors (so mutations made by the checker are observed).
func gradCheck(t *testing.T, name string, inputs []*tensor.Tensor, build func(tape *Tape, vars []*Var) *Var) {
	t.Helper()
	const eps = 1e-5
	const tol = 1e-4

	tape := NewTape()
	vars := make([]*Var, len(inputs))
	for i, in := range inputs {
		vars[i] = tape.Leaf(in)
	}
	loss := build(tape, vars)
	tape.Backward(loss)

	eval := func() float64 {
		tp := NewTape()
		vs := make([]*Var, len(inputs))
		for i, in := range inputs {
			vs[i] = tp.Leaf(in)
		}
		return build(tp, vs).Scalar()
	}

	for vi, in := range inputs {
		for i := range in.Data {
			old := in.Data[i]
			in.Data[i] = old + eps
			fp := eval()
			in.Data[i] = old - eps
			fm := eval()
			in.Data[i] = old
			want := (fp - fm) / (2 * eps)
			got := vars[vi].Grad.Data[i]
			if math.Abs(want-got) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s: grad mismatch input %d elem %d: analytic %.8f numeric %.8f", name, vi, i, got, want)
			}
		}
	}
}

func randT(seed uint64, shape ...int) *tensor.Tensor {
	return tensor.Randn(tensor.NewRNG(seed), 1, shape...)
}

func TestGradAdd(t *testing.T) {
	gradCheck(t, "Add", []*tensor.Tensor{randT(1, 3, 2), randT(2, 3, 2)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(Add(v[0], v[1]), Const(randT(3, 3, 2))))
	})
}

func TestGradSub(t *testing.T) {
	gradCheck(t, "Sub", []*tensor.Tensor{randT(4, 2, 3), randT(5, 2, 3)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(Sub(v[0], v[1]), Const(randT(6, 2, 3))))
	})
}

func TestGradMul(t *testing.T) {
	gradCheck(t, "Mul", []*tensor.Tensor{randT(7, 4), randT(8, 4)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(v[0], v[1]))
	})
}

func TestGradScaleNegAddScalar(t *testing.T) {
	gradCheck(t, "Scale", []*tensor.Tensor{randT(9, 5)}, func(tp *Tape, v []*Var) *Var {
		return Sum(AddScalar(Neg(Scale(v[0], 2.5)), 1.0))
	})
}

func TestGradAddRowVec(t *testing.T) {
	gradCheck(t, "AddRowVec", []*tensor.Tensor{randT(10, 3, 4), randT(11, 4)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(AddRowVec(v[0], v[1]), Const(randT(12, 3, 4))))
	})
}

func TestGradMulColVec(t *testing.T) {
	gradCheck(t, "MulColVec", []*tensor.Tensor{randT(13, 3, 1), randT(14, 3, 4)}, func(tp *Tape, v []*Var) *Var {
		return Sum(MulColVec(v[0], v[1]))
	})
}

func TestGradReshape(t *testing.T) {
	gradCheck(t, "Reshape", []*tensor.Tensor{randT(15, 2, 6)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(Reshape(v[0], 3, 4), Const(randT(16, 3, 4))))
	})
}

func TestGradConcatSlice(t *testing.T) {
	gradCheck(t, "ConcatCols", []*tensor.Tensor{randT(17, 2, 3), randT(18, 2, 2)}, func(tp *Tape, v []*Var) *Var {
		cc := ConcatCols(v[0], v[1])
		return Sum(Mul(SliceCols(cc, 1, 4), Const(randT(19, 2, 3))))
	})
	gradCheck(t, "ConcatRows", []*tensor.Tensor{randT(20, 2, 3), randT(21, 3, 3)}, func(tp *Tape, v []*Var) *Var {
		cr := ConcatRows(v[0], v[1])
		return Sum(Mul(SliceRows(cr, 1, 4), Const(randT(22, 3, 3))))
	})
}

func TestGradGatherRows(t *testing.T) {
	gradCheck(t, "GatherRows", []*tensor.Tensor{randT(23, 4, 3)}, func(tp *Tape, v []*Var) *Var {
		// Repeated index exercises accumulation.
		return Sum(Mul(GatherRows(v[0], []int{0, 2, 2, 3}), Const(randT(24, 4, 3))))
	})
}

func TestGradMatMul(t *testing.T) {
	gradCheck(t, "MatMul", []*tensor.Tensor{randT(25, 3, 4), randT(26, 4, 2)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(MatMul(v[0], v[1]), Const(randT(27, 3, 2))))
	})
}

func TestGradTranspose(t *testing.T) {
	gradCheck(t, "Transpose", []*tensor.Tensor{randT(28, 3, 4)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(Transpose(v[0]), Const(randT(29, 4, 3))))
	})
}

func TestGradRowSumMean(t *testing.T) {
	gradCheck(t, "RowSum", []*tensor.Tensor{randT(30, 3, 4)}, func(tp *Tape, v []*Var) *Var {
		return Mean(Mul(RowSum(v[0]), Const(randT(31, 3, 1))))
	})
}

func TestGradActivations(t *testing.T) {
	// Shift inputs away from ReLU's kink at 0.
	x := randT(32, 6)
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.1 {
			x.Data[i] += 0.2
		}
	}
	gradCheck(t, "ReLU", []*tensor.Tensor{x}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(ReLU(v[0]), Const(randT(33, 6))))
	})
	gradCheck(t, "Sigmoid", []*tensor.Tensor{randT(34, 6)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(Sigmoid(v[0]), Const(randT(35, 6))))
	})
	gradCheck(t, "Tanh", []*tensor.Tensor{randT(36, 6)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(Tanh(v[0]), Const(randT(37, 6))))
	})
	gradCheck(t, "Exp", []*tensor.Tensor{randT(38, 6)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(Exp(v[0]), Const(randT(39, 6))))
	})
	pos := tensor.Apply(randT(40, 6), func(v float64) float64 { return math.Abs(v) + 0.5 })
	gradCheck(t, "Log", []*tensor.Tensor{pos}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(Log(v[0]), Const(randT(41, 6))))
	})
}

func TestGradSoftmaxRows(t *testing.T) {
	gradCheck(t, "SoftmaxRows", []*tensor.Tensor{randT(42, 3, 5)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(SoftmaxRows(v[0]), Const(randT(43, 3, 5))))
	})
}

func TestGradAttention(t *testing.T) {
	// Self-attention (causal or not) and cross-attention (tq ≠ tk), two
	// sentences, two heads of width 3.
	for _, c := range []struct {
		tq, tk int
		causal bool
	}{{4, 4, false}, {4, 4, true}, {3, 5, false}} {
		const b, heads, d = 2, 2, 6
		inputs := []*tensor.Tensor{randT(60, b*c.tq, d), randT(61, b*c.tk, d), randT(62, b*c.tk, d)}
		w := randT(63, b*c.tq, d)
		gradCheck(t, "Attention", inputs, func(tp *Tape, v []*Var) *Var {
			return Sum(Mul(Attention(v[0], v[1], v[2], b, c.tq, c.tk, heads, c.causal), Const(w)))
		})
	}
}

func TestGradDropout(t *testing.T) {
	gradCheck(t, "Dropout", []*tensor.Tensor{randT(44, 8)}, func(tp *Tape, v []*Var) *Var {
		// Fresh RNG with the same seed each call keeps the mask fixed.
		return Sum(Mul(Dropout(v[0], 0.5, true, tensor.NewRNG(99)), Const(randT(45, 8))))
	})
}

func TestDropoutEvalIdentity(t *testing.T) {
	x := Const(randT(46, 10))
	y := Dropout(x, 0.5, false, tensor.NewRNG(1))
	if y != x {
		t.Fatal("eval-mode dropout must be identity")
	}
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	gradCheck(t, "SoftmaxCE", []*tensor.Tensor{randT(47, 4, 5)}, func(tp *Tape, v []*Var) *Var {
		return SoftmaxCrossEntropy(v[0], []int{1, 0, 4, 2})
	})
}

func TestGradSoftmaxCrossEntropyIgnore(t *testing.T) {
	gradCheck(t, "SoftmaxCEIgnore", []*tensor.Tensor{randT(48, 4, 5)}, func(tp *Tape, v []*Var) *Var {
		return SoftmaxCrossEntropy(v[0], []int{1, IgnoreLabel, 4, IgnoreLabel})
	})
}

func TestGradBCEWithLogits(t *testing.T) {
	gradCheck(t, "BCE", []*tensor.Tensor{randT(49, 6)}, func(tp *Tape, v []*Var) *Var {
		return BCEWithLogits(v[0], []float64{1, 0, 1, 0, 1, 0})
	})
}

func TestGradMSE(t *testing.T) {
	tgt := randT(50, 6)
	gradCheck(t, "MSE", []*tensor.Tensor{randT(51, 6)}, func(tp *Tape, v []*Var) *Var {
		return MSE(v[0], tgt)
	})
}

func TestGradSmoothL1(t *testing.T) {
	// Spread predictions so both quadratic and linear regions are hit,
	// staying off the |d|=1 kink.
	pred := tensor.FromSlice([]float64{0.3, -0.4, 2.5, -3.0, 0.05, 1.6}, 6)
	tgt := tensor.New(6)
	gradCheck(t, "SmoothL1", []*tensor.Tensor{pred}, func(tp *Tape, v []*Var) *Var {
		return SmoothL1(v[0], tgt)
	})
}

func TestGradConv2D(t *testing.T) {
	gradCheck(t, "Conv2D", []*tensor.Tensor{randT(52, 2, 2, 5, 5), randT(53, 3, 2, 3, 3), randT(54, 3)},
		func(tp *Tape, v []*Var) *Var {
			return Sum(Mul(Conv2D(v[0], v[1], v[2], 1, 1), Const(randT(55, 2, 3, 5, 5))))
		})
	gradCheck(t, "Conv2DStride2NoBias", []*tensor.Tensor{randT(56, 1, 2, 6, 6), randT(57, 2, 2, 3, 3)},
		func(tp *Tape, v []*Var) *Var {
			return Sum(Mul(Conv2D(v[0], v[1], nil, 2, 1), Const(randT(58, 1, 2, 3, 3))))
		})
}

func TestGradMaxPool(t *testing.T) {
	// Perturb-resistant input: distinct values so argmax is stable under eps.
	x := randT(59, 1, 2, 4, 4)
	gradCheck(t, "MaxPool2D", []*tensor.Tensor{x}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(MaxPool2D(v[0], 2, 2), Const(randT(60, 1, 2, 2, 2))))
	})
}

func TestGradGlobalAvgPool(t *testing.T) {
	gradCheck(t, "GlobalAvgPool2D", []*tensor.Tensor{randT(61, 2, 3, 3, 3)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(GlobalAvgPool2D(v[0]), Const(randT(62, 2, 3))))
	})
}

func TestGradBatchNorm2DTrain(t *testing.T) {
	rm, rv := tensor.New(2), tensor.Ones(2)
	gradCheck(t, "BatchNorm2DTrain",
		[]*tensor.Tensor{randT(63, 2, 2, 3, 3), randT(64, 2), randT(65, 2)},
		func(tp *Tape, v []*Var) *Var {
			y := BatchNorm2D(v[0], v[1], v[2], rm, rv, 0.1, 1e-5, true)
			return Sum(Mul(y, Const(randT(66, 2, 2, 3, 3))))
		})
}

func TestGradBatchNorm2DEval(t *testing.T) {
	rm := randT(67, 2)
	rv := tensor.Apply(randT(68, 2), func(v float64) float64 { return v*v + 0.5 })
	gradCheck(t, "BatchNorm2DEval",
		[]*tensor.Tensor{randT(69, 2, 2, 3, 3), randT(70, 2), randT(71, 2)},
		func(tp *Tape, v []*Var) *Var {
			y := BatchNorm2D(v[0], v[1], v[2], rm, rv, 0.1, 1e-5, false)
			return Sum(Mul(y, Const(randT(72, 2, 2, 3, 3))))
		})
}

func TestBatchNormUpdatesRunningStats(t *testing.T) {
	tp := NewTape()
	x := tp.Leaf(randT(73, 4, 1, 2, 2))
	gamma := tp.Leaf(tensor.Ones(1))
	beta := tp.Leaf(tensor.New(1))
	rm, rv := tensor.New(1), tensor.Ones(1)
	BatchNorm2D(x, gamma, beta, rm, rv, 0.5, 1e-5, true)
	if rm.Data[0] == 0 {
		t.Fatal("running mean should move toward batch mean")
	}
}

func TestGradLayerNorm(t *testing.T) {
	gradCheck(t, "LayerNorm",
		[]*tensor.Tensor{randT(74, 3, 4), randT(75, 4), randT(76, 4)},
		func(tp *Tape, v []*Var) *Var {
			return Sum(Mul(LayerNorm(v[0], v[1], v[2], 1e-5), Const(randT(77, 3, 4))))
		})
}

func TestGradRoIAlign(t *testing.T) {
	boxes := []RoIBox{
		{Batch: 0, X1: 0.5, Y1: 0.5, X2: 3.5, Y2: 3.5},
		{Batch: 1, X1: 1.0, Y1: 0.0, X2: 4.0, Y2: 2.0},
	}
	gradCheck(t, "RoIAlign", []*tensor.Tensor{randT(78, 2, 2, 5, 5)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(RoIAlign(v[0], boxes, 3), Const(randT(79, 2, 2, 3, 3))))
	})
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	tp.Backward(tp.Leaf(randT(80, 2)))
}

func TestConstOpsRecordNothing(t *testing.T) {
	tp := NewTape()
	a := Const(randT(81, 3))
	b := Const(randT(82, 3))
	_ = Add(a, b)
	if tp.Len() != 0 {
		t.Fatal("ops over constants must not record backward work")
	}
}

func TestParamGradAccumulatesAcrossTapes(t *testing.T) {
	p := NewParam("w", tensor.Ones(2))
	for i := 0; i < 2; i++ {
		tp := NewTape()
		w := tp.Watch(p)
		tp.Backward(Sum(w))
	}
	if p.Grad.Data[0] != 2 {
		t.Fatalf("gradient should accumulate: %v", p.Grad.Data)
	}
	p.ZeroGrad()
	if p.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestChainedGraphGrad(t *testing.T) {
	// A small two-layer network end to end.
	gradCheck(t, "TwoLayer",
		[]*tensor.Tensor{randT(83, 4, 3), randT(84, 3, 5), randT(85, 5), randT(86, 5, 2)},
		func(tp *Tape, v []*Var) *Var {
			h := Tanh(AddRowVec(MatMul(v[0], v[1]), v[2]))
			return SoftmaxCrossEntropy(MatMul(h, v[3]), []int{0, 1, 1, 0})
		})
}

func TestGradSpatialRows(t *testing.T) {
	gradCheck(t, "SpatialRows", []*tensor.Tensor{randT(90, 2, 6, 2, 2)}, func(tp *Tape, v []*Var) *Var {
		return Sum(Mul(SpatialRows(v[0], 3), Const(randT(91, 16, 3))))
	})
}

func TestGradSoftCrossEntropy(t *testing.T) {
	// Random soft targets, rows normalized.
	tgt := randT(92, 3, 4)
	for i := 0; i < 3; i++ {
		s := 0.0
		for j := 0; j < 4; j++ {
			tgt.Data[i*4+j] = math.Abs(tgt.Data[i*4+j])
			s += tgt.Data[i*4+j]
		}
		for j := 0; j < 4; j++ {
			tgt.Data[i*4+j] /= s
		}
	}
	gradCheck(t, "SoftCE", []*tensor.Tensor{randT(93, 3, 4)}, func(tp *Tape, v []*Var) *Var {
		return SoftCrossEntropy(v[0], tgt)
	})
}

// --- Gradient flattening (the training engine's fusion-buffer layout) ---

func TestFlattenScatterRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(5)
	params := []*Param{
		NewParam("a", tensor.Randn(rng, 1, 2, 3)),
		NewParam("b", tensor.Randn(rng, 1, 4)),
		NewParam("c", tensor.Randn(rng, 1, 1, 5)),
	}
	if got := FlatSize(params); got != 2*3+4+5 {
		t.Fatalf("FlatSize = %d", got)
	}
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.Norm()
		}
	}
	flat := make([]float64, FlatSize(params))
	FlattenGradsScaled(flat, params, 1)
	// The flat layout is the concatenation in parameter order.
	o := 0
	for _, p := range params {
		for i, g := range p.Grad.Data {
			if flat[o+i] != g {
				t.Fatalf("flat[%d] = %g, want %g", o+i, flat[o+i], g)
			}
		}
		o += p.Grad.Size()
	}
	// Scatter into a second parameter list restores the gradients exactly.
	rng2 := tensor.NewRNG(5)
	clone := []*Param{
		NewParam("a", tensor.Randn(rng2, 1, 2, 3)),
		NewParam("b", tensor.Randn(rng2, 1, 4)),
		NewParam("c", tensor.Randn(rng2, 1, 1, 5)),
	}
	ScatterGrads(flat, clone)
	for pi, p := range params {
		for i, g := range p.Grad.Data {
			if clone[pi].Grad.Data[i] != g {
				t.Fatalf("scatter mismatch at param %d elem %d", pi, i)
			}
		}
	}
}

func TestFlattenGradsScaled(t *testing.T) {
	p := NewParam("w", tensor.Ones(3))
	p.Grad.Data = []float64{1, -2, 4}
	flat := make([]float64, 3)
	FlattenGradsScaled(flat, []*Param{p}, 0.25)
	want := []float64{0.25, -0.5, 1}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("flat = %v, want %v", flat, want)
		}
	}
}

func TestCopyParamValuesAndParamsEqual(t *testing.T) {
	rng := tensor.NewRNG(9)
	src := []*Param{NewParam("a", tensor.Randn(rng, 1, 6)), NewParam("b", tensor.Randn(rng, 1, 2, 2))}
	dst := []*Param{NewParam("a", tensor.New(6)), NewParam("b", tensor.New(2, 2))}
	if ParamsEqual(dst, src) {
		t.Fatal("distinct values reported equal")
	}
	CopyParamValues(dst, src)
	if !ParamsEqual(dst, src) {
		t.Fatal("broadcast copy did not synchronize values")
	}
	dst[1].Value.Data[3] += 1e-16
	if ParamsEqual(dst, src) {
		t.Fatal("bitwise drift not detected")
	}
}

func TestFlattenSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FlattenGradsScaled(make([]float64, 2), []*Param{NewParam("a", tensor.Ones(3))}, 1)
}
