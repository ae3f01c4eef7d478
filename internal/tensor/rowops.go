package tensor

import "math"

// Row-wise kernels shared by the autograd tape ops and the tape-free
// forward paths (nn's ApplyInto/Attend). Each has one implementation, so
// a layer evaluated on a tape and the same layer evaluated without one
// produce the same bits.

// ReLUInto writes max(0, a) into dst elementwise (dst may alias a).
//
//mlperfvet:hotpath
func ReLUInto(dst, a *Tensor) {
	if len(dst.Data) != len(a.Data) {
		panic("tensor: ReLU size mismatch")
	}
	for i, v := range a.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

// AddRowVecInto writes a [n,m] + b [m] (b broadcast over rows) into dst,
// which may alias a — the bias add of a linear layer.
//
//mlperfvet:hotpath
func AddRowVecInto(dst, a, b *Tensor) {
	n, m := a.Shape[0], a.Shape[1]
	if len(dst.Data) != len(a.Data) || len(b.Data) != m {
		panic("tensor: AddRowVec size mismatch")
	}
	for i := 0; i < n; i++ {
		ar, dr := a.Data[i*m:(i+1)*m], dst.Data[i*m:(i+1)*m]
		for j, bv := range b.Data {
			dr[j] = ar[j] + bv
		}
	}
}

// SoftmaxRow writes the numerically stable softmax of src into dst (equal
// lengths, dst may alias src): exp(v − max) normalized by the sum, which
// accumulates in ascending index order.
//
//mlperfvet:hotpath
func SoftmaxRow(dst, src []float64) {
	mx := src[0]
	for _, v := range src[1:] {
		if v > mx {
			mx = v
		}
	}
	s := 0.0
	for j, v := range src {
		e := math.Exp(v - mx)
		dst[j] = e
		s += e
	}
	for j := range dst {
		dst[j] /= s
	}
}

// LayerNormRow normalizes one row x to zero mean and unit variance and
// writes gamma·x̂ + beta into dst (equal lengths, dst may alias x). When
// xhat is non-nil it receives x̂ for a backward pass. It returns the row's
// 1/sqrt(var + eps).
//
//mlperfvet:hotpath
func LayerNormRow(dst, xhat, x, gamma, beta []float64, eps float64) float64 {
	m := float64(len(x))
	mu := 0.0
	for _, v := range x {
		mu += v
	}
	mu /= m
	va := 0.0
	for _, v := range x {
		d := v - mu
		va += d * d
	}
	va /= m
	is := 1 / math.Sqrt(va+eps)
	for j, v := range x {
		xh := (v - mu) * is
		if xhat != nil {
			xhat[j] = xh
		}
		dst[j] = gamma[j]*xh + beta[j]
	}
	return is
}
