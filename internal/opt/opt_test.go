package opt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

func newParam(vals ...float64) *autograd.Param {
	return autograd.NewParam("p", tensor.FromSlice(vals, len(vals)))
}

// setGrad assigns the gradient directly (optimizer unit tests drive the
// update equations without a network).
func setGrad(p *autograd.Param, g ...float64) {
	copy(p.Grad.Data, g)
}

func TestSGDPlainStep(t *testing.T) {
	p := newParam(1.0)
	s := NewSGD([]*autograd.Param{p}, 0.1, 0, 0, TorchStyle)
	setGrad(p, 2.0)
	s.Step()
	if math.Abs(p.Value.Data[0]-0.8) > 1e-12 {
		t.Fatalf("plain SGD: got %v want 0.8", p.Value.Data[0])
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := newParam(1.0)
	s := NewSGD([]*autograd.Param{p}, 0.1, 0, 0.5, TorchStyle)
	setGrad(p, 0)
	s.Step()
	// g_eff = 0 + 0.5*1 = 0.5; w = 1 - 0.1*0.5 = 0.95
	if math.Abs(p.Value.Data[0]-0.95) > 1e-12 {
		t.Fatalf("weight decay: got %v", p.Value.Data[0])
	}
}

// §2.2.4: the two momentum formulations are identical at constant learning
// rate...
func TestMomentumStylesAgreeAtConstantLR(t *testing.T) {
	a := newParam(1.0)
	b := newParam(1.0)
	sa := NewSGD([]*autograd.Param{a}, 0.1, 0.9, 0, CaffeStyle)
	sb := NewSGD([]*autograd.Param{b}, 0.1, 0.9, 0, TorchStyle)
	for i := 0; i < 20; i++ {
		g := math.Sin(float64(i)) // arbitrary but identical gradients
		setGrad(a, g)
		setGrad(b, g)
		sa.Step()
		sb.Step()
		if math.Abs(a.Value.Data[0]-b.Value.Data[0]) > 1e-12 {
			t.Fatalf("step %d: styles diverged at constant LR: %v vs %v", i, a.Value.Data[0], b.Value.Data[0])
		}
	}
}

// ...but diverge when the learning rate changes during training.
func TestMomentumStylesDivergeUnderLRChange(t *testing.T) {
	a := newParam(1.0)
	b := newParam(1.0)
	sa := NewSGD([]*autograd.Param{a}, 0.1, 0.9, 0, CaffeStyle)
	sb := NewSGD([]*autograd.Param{b}, 0.1, 0.9, 0, TorchStyle)
	for i := 0; i < 10; i++ {
		if i == 5 { // step-decay the learning rate mid-training
			sa.SetLR(0.01)
			sb.SetLR(0.01)
		}
		setGrad(a, 1.0)
		setGrad(b, 1.0)
		sa.Step()
		sb.Step()
	}
	if math.Abs(a.Value.Data[0]-b.Value.Data[0]) < 1e-6 {
		t.Fatalf("styles should diverge after an LR change (Caffe folds LR into velocity): %v vs %v",
			a.Value.Data[0], b.Value.Data[0])
	}
}

// Caffe-style velocity carries the OLD learning rate after a decay, so its
// first post-decay update is larger.
func TestCaffeStyleCarriesOldLR(t *testing.T) {
	a := newParam(0.0)
	b := newParam(0.0)
	sa := NewSGD([]*autograd.Param{a}, 1.0, 0.9, 0, CaffeStyle)
	sb := NewSGD([]*autograd.Param{b}, 1.0, 0.9, 0, TorchStyle)
	setGrad(a, 1)
	setGrad(b, 1)
	sa.Step()
	sb.Step() // both at -1.0
	sa.SetLR(0.0)
	sb.SetLR(0.0)
	setGrad(a, 0)
	setGrad(b, 0)
	sa.Step() // velocity 1.0 still applied: w -= 0.9
	sb.Step() // lr 0 kills the whole update
	if math.Abs(a.Value.Data[0]-(-1.9)) > 1e-12 {
		t.Fatalf("caffe: got %v want -1.9", a.Value.Data[0])
	}
	if math.Abs(b.Value.Data[0]-(-1.0)) > 1e-12 {
		t.Fatalf("torch: got %v want -1.0", b.Value.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := newParam(5.0)
	a := NewAdam([]*autograd.Param{p}, 0.1, 0.9, 0.999, 1e-8, 0)
	for i := 0; i < 500; i++ {
		setGrad(p, 2*p.Value.Data[0]) // d/dw w² = 2w
		a.Step()
	}
	if math.Abs(p.Value.Data[0]) > 1e-2 {
		t.Fatalf("Adam failed to minimize w²: %v", p.Value.Data[0])
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	p := newParam(0.0)
	a := NewAdam([]*autograd.Param{p}, 0.1, 0.9, 0.999, 0, 0)
	setGrad(p, 3.0)
	a.Step()
	// With bias correction, the first step is ≈ lr (sign of gradient).
	if math.Abs(p.Value.Data[0]-(-0.1)) > 1e-9 {
		t.Fatalf("first Adam step should be -lr, got %v", p.Value.Data[0])
	}
}

func TestLARSLayerwiseScaling(t *testing.T) {
	// Two tensors with very different weight/grad norms should get very
	// different effective rates.
	big := newParam(10, 10, 10, 10)
	small := newParam(0.1, 0.1, 0.1, 0.1)
	l := NewLARS([]*autograd.Param{big, small}, 1.0, 0, 0, 0.1)
	setGrad(big, 1, 1, 1, 1)
	setGrad(small, 1, 1, 1, 1)
	l.Step()
	dBig := 10 - big.Value.Data[0]
	dSmall := 0.1 - small.Value.Data[0]
	if dBig <= dSmall {
		t.Fatalf("LARS should scale updates with ||w||/||g||: dBig=%v dSmall=%v", dBig, dSmall)
	}
}

func TestLARSConverges(t *testing.T) {
	p := newParam(4.0)
	l := NewLARS([]*autograd.Param{p}, 0.1, 0.9, 0, 1.0)
	for i := 0; i < 300; i++ {
		setGrad(p, 2*p.Value.Data[0])
		l.Step()
	}
	if math.Abs(p.Value.Data[0]) > 0.1 {
		t.Fatalf("LARS failed to minimize w²: %v", p.Value.Data[0])
	}
}

func TestStepSchedule(t *testing.T) {
	s := Step{Base: 1.0, Boundaries: []int{10, 20}, Factor: 0.1}
	if s.At(0) != 1.0 || s.At(9) != 1.0 {
		t.Fatal("before first boundary")
	}
	if math.Abs(s.At(10)-0.1) > 1e-12 || math.Abs(s.At(19)-0.1) > 1e-12 {
		t.Fatal("after first boundary")
	}
	if math.Abs(s.At(25)-0.01) > 1e-12 {
		t.Fatal("after second boundary")
	}
}

func TestCosineSchedule(t *testing.T) {
	c := Cosine{Base: 1.0, Floor: 0.0, Total: 100}
	if c.At(0) != 1.0 {
		t.Fatalf("cosine start: %v", c.At(0))
	}
	if math.Abs(c.At(50)-0.5) > 1e-9 {
		t.Fatalf("cosine midpoint: %v", c.At(50))
	}
	if c.At(100) != 0 || c.At(200) != 0 {
		t.Fatal("cosine end should clamp to floor")
	}
}

func TestWarmupSchedule(t *testing.T) {
	w := Warmup{Inner: Constant(1.0), WarmupSteps: 10}
	if w.At(0) >= w.At(5) || w.At(5) >= w.At(9) {
		t.Fatal("warmup should increase")
	}
	if w.At(10) != 1.0 || w.At(100) != 1.0 {
		t.Fatal("warmup should reach the inner rate")
	}
}

func TestLinearScaledRule(t *testing.T) {
	if LinearScaled(0.1, 1024, 256) != 0.4 {
		t.Fatal("linear scaling rule")
	}
}

func TestInverseSqrtPeaksAtWarmup(t *testing.T) {
	s := InverseSqrt{Base: 1.0, WarmupSteps: 100}
	peak := s.At(99)
	if s.At(10) >= peak {
		t.Fatal("rate should rise during warmup")
	}
	if s.At(400) >= peak {
		t.Fatal("rate should decay after warmup")
	}
}

// Property: warmup never exceeds the inner schedule.
func TestWarmupBoundedProperty(t *testing.T) {
	f := func(stepRaw uint16, warmupRaw uint8) bool {
		w := Warmup{Inner: Constant(2.5), WarmupSteps: int(warmupRaw)}
		v := w.At(int(stepRaw))
		return v >= 0 && v <= 2.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: step schedule is non-increasing for factor < 1.
func TestStepMonotoneProperty(t *testing.T) {
	s := Step{Base: 1.0, Boundaries: []int{5, 15, 30}, Factor: 0.5}
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw), int(bRaw)
		if a > b {
			a, b = b, a
		}
		return s.At(a) >= s.At(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Two optimizer instances of the same kind, driven with bit-identical
// parameters and gradients, must produce bit-identical updates — the
// replica-synchronization invariant the data-parallel training engine
// relies on (every replica applies the aggregated gradient through its own
// optimizer instance).
func TestOptimizersDeterministicAcrossInstances(t *testing.T) {
	build := func(name string, params []*autograd.Param) Optimizer {
		switch name {
		case "sgd-torch":
			return NewSGD(params, 0.05, 0.9, 1e-4, TorchStyle)
		case "sgd-caffe":
			return NewSGD(params, 0.05, 0.9, 1e-4, CaffeStyle)
		case "adam":
			return NewAdam(params, 0.002, 0.9, 0.999, 1e-8, 1e-5)
		case "lars":
			return NewLARS(params, 0.05, 0.9, 1e-4, 0.02)
		}
		panic(name)
	}
	for _, name := range []string{"sgd-torch", "sgd-caffe", "adam", "lars"} {
		mk := func() ([]*autograd.Param, Optimizer) {
			rng := tensor.NewRNG(31)
			params := []*autograd.Param{
				autograd.NewParam("w", tensor.Randn(rng, 0.3, 4, 4)),
				autograd.NewParam("b", tensor.Randn(rng, 0.3, 4)),
			}
			return params, build(name, params)
		}
		pa, oa := mk()
		pb, ob := mk()
		grng := tensor.NewRNG(77)
		for step := 0; step < 5; step++ {
			for i := range pa {
				for j := range pa[i].Grad.Data {
					g := grng.Norm()
					pa[i].Grad.Data[j] = g
					pb[i].Grad.Data[j] = g
				}
			}
			if step == 3 { // schedule changes must stay in lockstep too
				oa.SetLR(0.01)
				ob.SetLR(0.01)
			}
			oa.Step()
			ob.Step()
		}
		if !autograd.ParamsEqual(pa, pb) {
			t.Fatalf("%s: identical gradient streams produced diverging parameters", name)
		}
	}
}
