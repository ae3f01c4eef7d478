package autograd

import (
	"math"

	"repro/internal/tensor"
)

func sigmoidFn(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// ReLU returns max(0, a) elementwise.
func ReLU(a *Var) *Var {
	tp := tapeOf(a)
	if tp == nil {
		val := tensor.New(a.Value.Shape...)
		tensor.ReLUInto(val, a.Value)
		return constResult(val)
	}
	nd := tp.node(reluBack, a, nil, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.ReLUInto(out.Value, a.Value)
	return out
}

func reluBack(nd *node) {
	a, out := nd.a, &nd.out
	for i := range a.Grad.Data {
		if a.Value.Data[i] > 0 {
			a.Grad.Data[i] += out.Grad.Data[i]
		}
	}
}

// Sigmoid returns 1/(1+exp(-a)) elementwise.
func Sigmoid(a *Var) *Var {
	tp := tapeOf(a)
	if tp == nil {
		return constResult(tensor.Apply(a.Value, sigmoidFn))
	}
	nd := tp.node(sigmoidBack, a, nil, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.ApplyInto(out.Value, a.Value, sigmoidFn)
	return out
}

func sigmoidBack(nd *node) {
	a, out := nd.a, &nd.out
	for i := range a.Grad.Data {
		y := out.Value.Data[i]
		a.Grad.Data[i] += out.Grad.Data[i] * y * (1 - y)
	}
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Var) *Var {
	tp := tapeOf(a)
	if tp == nil {
		return constResult(tensor.Apply(a.Value, math.Tanh))
	}
	nd := tp.node(tanhBack, a, nil, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.ApplyInto(out.Value, a.Value, math.Tanh)
	return out
}

func tanhBack(nd *node) {
	a, out := nd.a, &nd.out
	for i := range a.Grad.Data {
		y := out.Value.Data[i]
		a.Grad.Data[i] += out.Grad.Data[i] * (1 - y*y)
	}
}

// Exp returns exp(a) elementwise.
func Exp(a *Var) *Var {
	tp := tapeOf(a)
	if tp == nil {
		return constResult(tensor.Apply(a.Value, math.Exp))
	}
	nd := tp.node(expBack, a, nil, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.ApplyInto(out.Value, a.Value, math.Exp)
	return out
}

func expBack(nd *node) {
	a, out := nd.a, &nd.out
	for i := range a.Grad.Data {
		a.Grad.Data[i] += out.Grad.Data[i] * out.Value.Data[i]
	}
}

// Log returns ln(a) elementwise; inputs must be positive.
func Log(a *Var) *Var {
	tp := tapeOf(a)
	if tp == nil {
		return constResult(tensor.Apply(a.Value, math.Log))
	}
	nd := tp.node(logBack, a, nil, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.ApplyInto(out.Value, a.Value, math.Log)
	return out
}

func logBack(nd *node) {
	a, out := nd.a, &nd.out
	for i := range a.Grad.Data {
		a.Grad.Data[i] += out.Grad.Data[i] / a.Value.Data[i]
	}
}

// SoftmaxRows applies a numerically stable softmax to each row of a 2-D var.
// Gradient: dx_i = y_i * (dy_i - Σ_j dy_j y_j), per row.
func SoftmaxRows(a *Var) *Var {
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	tp := tapeOf(a)
	if tp == nil {
		val := tensor.New(n, m)
		softmaxRows(val, a.Value)
		return constResult(val)
	}
	nd := tp.node(softmaxRowsBack, a, nil, nil)
	out := tp.result(nd, n, m)
	softmaxRows(out.Value, a.Value)
	return out
}

func softmaxRows(dst, a *tensor.Tensor) {
	n, m := a.Shape[0], a.Shape[1]
	for i := 0; i < n; i++ {
		tensor.SoftmaxRow(dst.Data[i*m:(i+1)*m], a.Data[i*m:(i+1)*m])
	}
}

func softmaxRowsBack(nd *node) {
	a, out := nd.a, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	for i := 0; i < n; i++ {
		dot := 0.0
		for j := 0; j < m; j++ {
			dot += out.Grad.Data[i*m+j] * out.Value.Data[i*m+j]
		}
		for j := 0; j < m; j++ {
			y := out.Value.Data[i*m+j]
			a.Grad.Data[i*m+j] += y * (out.Grad.Data[i*m+j] - dot)
		}
	}
}

// Dropout zeroes each element with probability p during training and scales
// survivors by 1/(1-p) (inverted dropout). In eval mode it is the identity.
// The mask is drawn from rng, keeping runs reproducible per seed.
func Dropout(a *Var, p float64, train bool, rng *tensor.RNG) *Var {
	if !train || p <= 0 {
		return a
	}
	keep := 1 - p
	tp := tapeOf(a)
	if tp == nil {
		val := tensor.New(a.Value.Shape...)
		for i := range val.Data {
			mv := 0.0
			if rng.Float64() < keep {
				mv = 1 / keep
			}
			val.Data[i] = a.Value.Data[i] * mv
		}
		return constResult(val)
	}
	nd := tp.node(dropoutBack, a, nil, nil)
	nd.buf = floatsCap(nd.buf, a.Value.Size())
	for i := range nd.buf {
		nd.buf[i] = 0
		if rng.Float64() < keep {
			nd.buf[i] = 1 / keep
		}
	}
	out := tp.result(nd, a.Value.Shape...)
	for i := range out.Value.Data {
		out.Value.Data[i] = a.Value.Data[i] * nd.buf[i]
	}
	return out
}

func dropoutBack(nd *node) {
	a, out := nd.a, &nd.out
	for i := range a.Grad.Data {
		a.Grad.Data[i] += out.Grad.Data[i] * nd.buf[i]
	}
}
