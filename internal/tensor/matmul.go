package tensor

import (
	"fmt"
)

// The three dense-product entry points (MatMul, MatMulTransA,
// MatMulTransB, plus their *Into forms) all route through the blocked,
// packed, register-tiled engine in gemm.go. The MatMul*Rows functions
// below are the retained naive reference kernels: the engine dispatches
// to them for tiny shapes, the parity tests in gemm_test.go hold the
// engine to their bits, and steady-state callers may still drive them
// through cached range closures.
//
// Semantics (shared by reference and engine): every product term is
// computed and accumulated — a zero operand contributes an exact ±0·x
// term rather than being skipped, so NaN/Inf in the other operand
// propagate per IEEE 754. (The previous kernels skipped a == 0 terms,
// silently suppressing 0·Inf = NaN and, in principle, flipping signed
// zeros; on finite inputs the bits are unchanged — see gemm.go.)

// MatMul returns the matrix product a·b for 2-D tensors a [n,k] and
// b [k,m]. Each output element accumulates its k terms in ascending
// order regardless of worker count, block size, or dispatch path, so the
// result is bit-identical at every pool width.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v x %v", a.Shape, b.Shape))
	}
	n, k := a.Shape[0], a.Shape[1]
	k2, m := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	c := New(n, m)
	gemmInto(gemmNN, c, a, b, n, k, m)
	return c
}

// MatMulRows computes output rows [lo, hi) of c = a·b, zeroing them
// first — the naive (i,k,j) reference kernel, row-sharded. Each row is
// owned by exactly one range and accumulates over k in ascending order,
// so any range split produces the serial bits. The blocked engine is held
// bit-identical to this kernel on finite inputs (gemm_test.go).
//
//mlperfvet:hotpath
func MatMulRows(c, a, b *Tensor, lo, hi int) {
	matMulRows(c.Data, a.Data, b.Data, a.Shape[1], b.Shape[1], lo, hi)
}

// matMulRows is MatMulRows on raw slices: c [·,m] = a [·,k] · b [k,m].
//
//mlperfvet:hotpath
func matMulRows(c, a, b []float64, k, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a[i*k : (i+1)*k]
		cr := c[i*m : (i+1)*m]
		for j := range cr {
			cr[j] = 0
		}
		for p := 0; p < k; p++ {
			av := ar[p]
			br := b[p*m : (p+1)*m]
			for j, bv := range br {
				cr[j] += av * bv
			}
		}
	}
}

// MatMulTransA returns aᵀ·b for a [k,n] and b [k,m], producing [n,m].
// Used by backward passes: dW = xᵀ·dy.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransA requires rank-2 operands")
	}
	k, n := a.Shape[0], a.Shape[1]
	k2, m := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	c := New(n, m)
	gemmInto(gemmTA, c, a, b, n, k, m)
	return c
}

// MatMulTransARows computes output rows [lo, hi) of c = aᵀ·b, zeroing
// them first — the naive reference kernel for the transposed-A variant.
// Accumulation over p replays the serial order per element.
//
//mlperfvet:hotpath
func MatMulTransARows(c, a, b *Tensor, lo, hi int) {
	matMulTransARows(c.Data, a.Data, b.Data, a.Shape[1], a.Shape[0], b.Shape[1], lo, hi)
}

// matMulTransARows is MatMulTransARows on raw slices: c [n,m] = aᵀ·b for
// a [k,n] and b [k,m].
//
//mlperfvet:hotpath
func matMulTransARows(c, a, b []float64, n, k, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		cr := c[i*m : (i+1)*m]
		for j := range cr {
			cr[j] = 0
		}
	}
	for p := 0; p < k; p++ {
		ar := a[p*n : (p+1)*n]
		br := b[p*m : (p+1)*m]
		for i := lo; i < hi; i++ {
			av := ar[i]
			cr := c[i*m : (i+1)*m]
			for j, bv := range br {
				cr[j] += av * bv
			}
		}
	}
}

// MatMulTransB returns a·bᵀ for a [n,k] and b [m,k], producing [n,m].
// Used by backward passes: dx = dy·Wᵀ.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransB requires rank-2 operands")
	}
	n, k := a.Shape[0], a.Shape[1]
	m, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	c := New(n, m)
	gemmInto(gemmTB, c, a, b, n, k, m)
	return c
}

// MatMulTransBRows computes output rows [lo, hi) of c = a·bᵀ — the naive
// reference kernel for the transposed-B variant. Every output element is
// fully overwritten, so no zeroing is needed.
//
//mlperfvet:hotpath
func MatMulTransBRows(c, a, b *Tensor, lo, hi int) {
	matMulTransBRows(c.Data, a.Data, b.Data, a.Shape[1], b.Shape[0], lo, hi)
}

// matMulTransBRows is MatMulTransBRows on raw slices: c [·,m] = a·bᵀ for
// a [·,k] and b [m,k].
//
//mlperfvet:hotpath
func matMulTransBRows(c, a, b []float64, k, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a[i*k : (i+1)*k]
		cr := c[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			br := b[j*k : (j+1)*k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += ar[p] * br[p]
			}
			cr[j] = s
		}
	}
}

// MatMulInto writes a·b into c, which must be [n, m]. Bit-identical to
// MatMul; the output buffer is fully overwritten. c must not alias a or b.
func MatMulInto(c, a, b *Tensor) {
	n, k := a.Shape[0], a.Shape[1]
	m := b.Shape[1]
	if c.Shape[0] != n || c.Shape[1] != m || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %v = %v x %v", c.Shape, a.Shape, b.Shape))
	}
	gemmInto(gemmNN, c, a, b, n, k, m)
}

// MatMulTransAInto writes aᵀ·b into c, which must be [n, m]. Bit-identical
// to MatMulTransA. c must not alias a or b.
func MatMulTransAInto(c, a, b *Tensor) {
	k, n := a.Shape[0], a.Shape[1]
	m := b.Shape[1]
	if c.Shape[0] != n || c.Shape[1] != m || k != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shape mismatch %v = %vᵀ x %v", c.Shape, a.Shape, b.Shape))
	}
	gemmInto(gemmTA, c, a, b, n, k, m)
}

// MatMulTransBInto writes a·bᵀ into c, which must be [n, m]. Bit-identical
// to MatMulTransB. c must not alias a or b.
func MatMulTransBInto(c, a, b *Tensor) {
	n, k := a.Shape[0], a.Shape[1]
	m := b.Shape[0]
	if c.Shape[0] != n || c.Shape[1] != m || k != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch %v = %v x %vᵀ", c.Shape, a.Shape, b.Shape))
	}
	gemmInto(gemmTB, c, a, b, n, k, m)
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose2D requires rank 2")
	}
	n, m := a.Shape[0], a.Shape[1]
	c := New(m, n)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			c.Data[j*n+i] = a.Data[i*m+j]
		}
	}
	return c
}

// MatVec returns a·x for a [n,m] and x [m].
func MatVec(a *Tensor, x []float64) []float64 {
	if a.Rank() != 2 || a.Shape[1] != len(x) {
		panic("tensor: MatVec shape mismatch")
	}
	n, m := a.Shape[0], a.Shape[1]
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := a.Data[i*m : (i+1)*m]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}
