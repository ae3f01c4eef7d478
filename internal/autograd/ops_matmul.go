package autograd

import (
	"fmt"

	"repro/internal/tensor"
)

// MatMul returns a·b for a [n,k] and b [k,m].
// Gradients: da = dout·bᵀ, db = aᵀ·dout.
//
// Forward and both backward products run on the blocked, packed GEMM
// engine behind tensor.MatMul*Into. The engine owns its parallelism (2-D
// output tiles over the worker pool) and its workspaces (pack buffers
// from a shared arena), so the op needs no cached kernel closures: the
// serial dispatch path inside the engine allocates nothing, keeping warm
// tape replays at 0 allocs/op.
func MatMul(a, b *Var) *Var {
	tp := tapeOf(a, b)
	if tp == nil {
		return constResult(tensor.MatMul(a.Value, b.Value))
	}
	if a.Value.Rank() != 2 || b.Value.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v x %v", a.Value.Shape, b.Value.Shape))
	}
	n, k := a.Value.Shape[0], a.Value.Shape[1]
	k2, m := b.Value.Shape[0], b.Value.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.Value.Shape, b.Value.Shape))
	}
	if tp.dtype != tensor.Float64 {
		// Reduced-precision regime: stage the operands at compute
		// precision (narrowed to f32; additionally bf16-rounded under
		// BFloat16), run the f32 engine with fp32 accumulation, widen the
		// result back. The staged operands stay live in the node for the
		// backward products.
		nd := tp.node(matMulLPBack, a, b, nil)
		out := tp.result(nd, n, m)
		la := ensureF32(&nd.lpa, n, k)
		lb := ensureF32(&nd.lpb, k, m)
		lo := ensureF32(&nd.lpo, n, m)
		la.FromF64(a.Value, tp.dtype)
		lb.FromF64(b.Value, tp.dtype)
		tensor.MatMulF32Into(lo, la, lb)
		lo.CopyToF64(out.Value)
		return out
	}
	nd := tp.node(matMulBack, a, b, nil)
	out := tp.result(nd, n, m)
	tensor.MatMulInto(out.Value, a.Value, b.Value)
	return out
}

// matMulLPBack runs both backward products at compute precision: the
// upstream gradient is staged with the same dtype rounding as the forward
// operands (reusing the forward-output buffer — same shape), each product
// runs on the f32 engine, and the float32 results accumulate into the
// float64 gradient buffers, so cross-op gradient accumulation stays at
// full precision.
//
//mlperfvet:hotpath
func matMulLPBack(nd *node) {
	a, b := nd.a, nd.b
	n, k := a.Value.Shape[0], a.Value.Shape[1]
	m := b.Value.Shape[1]
	nd.lpo.FromF64(nd.out.Grad, nd.tape.dtype)
	if a.tape != nil {
		// da = dout·bᵀ
		lda := ensureF32(&nd.lpda, n, k)
		tensor.MatMulF32TransBInto(lda, nd.lpo, nd.lpb)
		lda.AddToF64(a.Grad)
	}
	if b.tape != nil {
		// db = aᵀ·dout
		ldb := ensureF32(&nd.lpdb, k, m)
		tensor.MatMulF32TransAInto(ldb, nd.lpa, nd.lpo)
		ldb.AddToF64(b.Grad)
	}
}

//mlperfvet:hotpath
func matMulBack(nd *node) {
	a, b := nd.a, nd.b
	n, k := a.Value.Shape[0], a.Value.Shape[1]
	m := b.Value.Shape[1]
	if a.tape != nil {
		// da = dout·bᵀ, computed into pooled scratch and then accumulated,
		// matching the allocate-then-AddInPlace bits of the original op.
		nd.tape.ensureTensor(&nd.t0, n, k)
		tensor.MatMulTransBInto(nd.t0, nd.out.Grad, b.Value)
		a.Grad.AddInPlace(nd.t0)
	}
	if b.tape != nil {
		// db = aᵀ·dout.
		nd.tape.ensureTensor(&nd.t1, k, m)
		tensor.MatMulTransAInto(nd.t1, a.Value, nd.out.Grad)
		b.Grad.AddInPlace(nd.t1)
	}
}

// Transpose returns aᵀ for a 2-D var.
func Transpose(a *Var) *Var {
	tp := tapeOf(a)
	if tp == nil {
		return constResult(tensor.Transpose2D(a.Value))
	}
	if a.Value.Rank() != 2 {
		panic("tensor: Transpose2D requires rank 2")
	}
	nd := tp.node(transposeBack, a, nil, nil)
	out := tp.result(nd, a.Value.Shape[1], a.Value.Shape[0])
	transpose2DInto(out.Value, a.Value)
	return out
}

func transpose2DInto(dst, a *tensor.Tensor) {
	n, m := a.Shape[0], a.Shape[1]
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			dst.Data[j*n+i] = a.Data[i*m+j]
		}
	}
}

//mlperfvet:hotpath
func transposeBack(nd *node) {
	// Each grad element receives exactly one term, so accumulating directly
	// is bit-identical to transposing into scratch first.
	a, out := nd.a, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			a.Grad.Data[i*m+j] += out.Grad.Data[j*n+i]
		}
	}
}

// RowSum reduces a [n,m] var to [n,1] by summing each row.
func RowSum(a *Var) *Var {
	if a.Value.Rank() != 2 {
		panic(fmt.Sprintf("autograd: RowSum of shape %v", a.Value.Shape))
	}
	n := a.Value.Shape[0]
	tp := tapeOf(a)
	if tp == nil {
		val := tensor.New(n, 1)
		rowSum(val, a.Value)
		return constResult(val)
	}
	nd := tp.node(rowSumBack, a, nil, nil)
	out := tp.result(nd, n, 1)
	rowSum(out.Value, a.Value)
	return out
}

func rowSum(dst, a *tensor.Tensor) {
	n, m := a.Shape[0], a.Shape[1]
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < m; j++ {
			s += a.Data[i*m+j]
		}
		dst.Data[i] = s
	}
}

//mlperfvet:hotpath
func rowSumBack(nd *node) {
	a, out := nd.a, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	for i := 0; i < n; i++ {
		g := out.Grad.Data[i]
		for j := 0; j < m; j++ {
			a.Grad.Data[i*m+j] += g
		}
	}
}

// Sum reduces to a scalar.
func Sum(a *Var) *Var {
	tp := tapeOf(a)
	if tp == nil {
		return constResult(tensor.FromSlice([]float64{a.Value.Sum()}, 1))
	}
	nd := tp.node(sumBack, a, nil, nil)
	out := tp.result(nd, 1)
	out.Value.Data[0] = a.Value.Sum()
	return out
}

//mlperfvet:hotpath
func sumBack(nd *node) {
	g := nd.out.Grad.Data[0]
	for i := range nd.a.Grad.Data {
		nd.a.Grad.Data[i] += g
	}
}

// Mean reduces to the scalar arithmetic mean.
func Mean(a *Var) *Var {
	n := float64(a.Value.Size())
	tp := tapeOf(a)
	if tp == nil {
		return constResult(tensor.FromSlice([]float64{a.Value.Sum() / n}, 1))
	}
	nd := tp.node(meanBack, a, nil, nil)
	nd.f0 = n
	out := tp.result(nd, 1)
	out.Value.Data[0] = a.Value.Sum() / n
	return out
}

//mlperfvet:hotpath
func meanBack(nd *node) {
	g := nd.out.Grad.Data[0] / nd.f0
	for i := range nd.a.Grad.Data {
		nd.a.Grad.Data[i] += g
	}
}
