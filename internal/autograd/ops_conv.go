package autograd

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Conv2D applies a 2-D convolution with weights w [F,C,KH,KW] and optional
// bias b (nil for none) over NCHW input x. It runs on tensor's one
// convolution (im2col + the packed GEMM, in sample chunks), drawing the
// chunk workspaces from the tape's arena.
func Conv2D(x, w, b *Var, stride, pad int) *Var {
	var bt *tensor.Tensor
	if b != nil {
		bt = b.Value
	}
	tp := tapeOf(x, w, b)
	if tp == nil {
		return constResult(tensor.Conv2D(x.Value, w.Value, bt, stride, pad))
	}
	if x.Value.Rank() != 4 || w.Value.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D requires rank-4 operands, got %v, %v", x.Value.Shape, w.Value.Shape))
	}
	n, f := x.Value.Shape[0], w.Value.Shape[0]
	ho := tensor.ConvOut(x.Value.Shape[2], w.Value.Shape[2], stride, pad)
	wo := tensor.ConvOut(x.Value.Shape[3], w.Value.Shape[3], stride, pad)
	nd := tp.node(conv2DBack, x, w, b)
	nd.i0, nd.i1 = stride, pad
	out := tp.result(nd, n, f, ho, wo)
	tensor.Conv2DInto(tp.alloc, out.Value, x.Value, w.Value, bt, stride, pad)
	return out
}

// conv2DBack writes the gradients the operands need into the node's
// pooled scratch (t0/t1/t2 for dx/dw/db) and accumulates them; an operand
// off the tape (an input batch) costs no gradient work at all.
//
//mlperfvet:hotpath
func conv2DBack(nd *node) {
	x, w, b := nd.a, nd.b, nd.c
	var dx, dw, db *tensor.Tensor
	if x.tape != nil {
		dx = nd.tape.ensureTensor(&nd.t0, x.Value.Shape...)
	}
	if w.tape != nil {
		dw = nd.tape.ensureTensor(&nd.t1, w.Value.Shape...)
	}
	if b != nil && b.tape != nil {
		db = nd.tape.ensureTensor(&nd.t2, b.Value.Shape...)
	}
	tensor.Conv2DBackwardInto(nd.tape.alloc, dx, dw, db, x.Value, w.Value, nd.out.Grad, nd.i0, nd.i1)
	if dx != nil {
		x.Grad.AddInPlace(dx)
	}
	if dw != nil {
		w.Grad.AddInPlace(dw)
	}
	if db != nil {
		b.Grad.AddInPlace(db)
	}
}

// MaxPool2D applies square max pooling with window k and stride s.
func MaxPool2D(x *Var, k, s int) *Var {
	tp := tapeOf(x)
	if tp == nil {
		val, _ := tensor.MaxPool2D(x.Value, k, s)
		return constResult(val)
	}
	n, c := x.Value.Shape[0], x.Value.Shape[1]
	ho := tensor.ConvOut(x.Value.Shape[2], k, s, 0)
	wo := tensor.ConvOut(x.Value.Shape[3], k, s, 0)
	nd := tp.node(maxPool2DBack, x, nil, nil)
	nd.i0, nd.i1 = k, s
	out := tp.result(nd, n, c, ho, wo)
	nd.idx = intsCap(nd.idx, out.Value.Size())
	tensor.MaxPool2DInto(out.Value, nd.idx, x.Value, k, s)
	return out
}

func maxPool2DBack(nd *node) {
	x := nd.a
	// Scatter into pooled scratch first, then accumulate — the same
	// two-stage order as the non-pooled path, so bits match exactly even
	// when pooling windows overlap.
	dx := nd.tape.ensureTensor(&nd.t0, x.Value.Shape...)
	dx.Zero()
	for i, g := range nd.out.Grad.Data {
		if nd.idx[i] >= 0 {
			dx.Data[nd.idx[i]] += g
		}
	}
	x.Grad.AddInPlace(dx)
}

// GlobalAvgPool2D reduces [N,C,H,W] to [N,C] by spatial averaging.
func GlobalAvgPool2D(x *Var) *Var {
	tp := tapeOf(x)
	if tp == nil {
		return constResult(tensor.GlobalAvgPool2D(x.Value))
	}
	nd := tp.node(globalAvgPool2DBack, x, nil, nil)
	out := tp.result(nd, x.Value.Shape[0], x.Value.Shape[1])
	tensor.GlobalAvgPool2DInto(out.Value, x.Value)
	return out
}

func globalAvgPool2DBack(nd *node) {
	// Each input element receives exactly one gradient term, so direct
	// accumulation is bit-identical to scratch-then-add.
	x := nd.a
	n, c, h, w := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	plane := h * w
	inv := 1.0 / float64(plane)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			g := nd.out.Grad.Data[in*c+ic] * inv
			base := ((in*c + ic) * h) * w
			for p := 0; p < plane; p++ {
				x.Grad.Data[base+p] += g
			}
		}
	}
}

// BatchNorm2D normalizes each channel of an NCHW input over (N,H,W) using
// batch statistics in training mode and the provided running statistics in
// eval mode. In training mode the running statistics are updated in place
// with the given momentum (the "moving average decay" hyperparameter the
// paper calls out in §2.1).
func BatchNorm2D(x, gamma, beta *Var, runMean, runVar *tensor.Tensor, momentum, eps float64, train bool) *Var {
	n, c, h, w := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	if gamma.Value.Size() != c || beta.Value.Size() != c {
		panic(fmt.Sprintf("autograd: BatchNorm2D gamma/beta size for %d channels", c))
	}
	plane := h * w
	m := float64(n * plane)

	tp := tapeOf(x, gamma, beta)
	var nd *node
	var mean, variance, invStd, xhat []float64
	var val *tensor.Tensor
	if tp != nil {
		nd = tp.node(batchNorm2DBack, x, gamma, beta)
		nd.flag = train
		nd.buf2 = floatsCap(nd.buf2, 3*c)
		mean, variance, invStd = nd.buf2[0:c], nd.buf2[c:2*c], nd.buf2[2*c:3*c]
		nd.buf = floatsCap(nd.buf, x.Value.Size())
		xhat = nd.buf
	} else {
		stats := make([]float64, 3*c)
		mean, variance, invStd = stats[0:c], stats[c:2*c], stats[2*c:3*c]
		xhat = make([]float64, x.Value.Size())
		val = tensor.New(x.Value.Shape...)
	}

	if train {
		for ic := 0; ic < c; ic++ {
			s := 0.0
			for in := 0; in < n; in++ {
				base := ((in*c + ic) * h) * w
				for p := 0; p < plane; p++ {
					s += x.Value.Data[base+p]
				}
			}
			mean[ic] = s / m
		}
		for ic := 0; ic < c; ic++ {
			s := 0.0
			for in := 0; in < n; in++ {
				base := ((in*c + ic) * h) * w
				for p := 0; p < plane; p++ {
					d := x.Value.Data[base+p] - mean[ic]
					s += d * d
				}
			}
			variance[ic] = s / m
		}
		for ic := 0; ic < c; ic++ {
			runMean.Data[ic] = (1-momentum)*runMean.Data[ic] + momentum*mean[ic]
			runVar.Data[ic] = (1-momentum)*runVar.Data[ic] + momentum*variance[ic]
		}
	} else {
		copy(mean, runMean.Data)
		copy(variance, runVar.Data)
	}

	for ic := 0; ic < c; ic++ {
		invStd[ic] = 1 / math.Sqrt(variance[ic]+eps)
	}

	var out *Var
	if tp != nil {
		out = tp.result(nd, x.Value.Shape...)
		val = out.Value
	}
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			base := ((in*c + ic) * h) * w
			g, bb := gamma.Value.Data[ic], beta.Value.Data[ic]
			for p := 0; p < plane; p++ {
				xh := (x.Value.Data[base+p] - mean[ic]) * invStd[ic]
				xhat[base+p] = xh
				val.Data[base+p] = g*xh + bb
			}
		}
	}
	if tp == nil {
		return constResult(val)
	}
	return out
}

func batchNorm2DBack(nd *node) {
	x, gamma, beta := nd.a, nd.b, nd.c
	train := nd.flag
	n, c, h, w := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	plane := h * w
	m := float64(n * plane)
	xhat := nd.buf
	invStd := nd.buf2[2*c : 3*c]
	out := &nd.out

	for ic := 0; ic < c; ic++ {
		sumDy, sumDyXhat := 0.0, 0.0
		for in := 0; in < n; in++ {
			base := ((in*c + ic) * h) * w
			for p := 0; p < plane; p++ {
				dy := out.Grad.Data[base+p]
				sumDy += dy
				sumDyXhat += dy * xhat[base+p]
			}
		}
		if gamma.tape != nil {
			gamma.Grad.Data[ic] += sumDyXhat
		}
		if beta.tape != nil {
			beta.Grad.Data[ic] += sumDy
		}
		if x.tape != nil {
			g := gamma.Value.Data[ic]
			if train {
				// Full batch-stat gradient.
				for in := 0; in < n; in++ {
					base := ((in*c + ic) * h) * w
					for p := 0; p < plane; p++ {
						dy := out.Grad.Data[base+p]
						x.Grad.Data[base+p] += g * invStd[ic] *
							(dy - sumDy/m - xhat[base+p]*sumDyXhat/m)
					}
				}
			} else {
				for in := 0; in < n; in++ {
					base := ((in*c + ic) * h) * w
					for p := 0; p < plane; p++ {
						x.Grad.Data[base+p] += g * invStd[ic] * out.Grad.Data[base+p]
					}
				}
			}
		}
	}
}

// LayerNorm normalizes each row of a 2-D var (the Transformer normalization).
func LayerNorm(x, gamma, beta *Var, eps float64) *Var {
	n, m := x.Value.Shape[0], x.Value.Shape[1]
	if gamma.Value.Size() != m || beta.Value.Size() != m {
		panic("autograd: LayerNorm gamma/beta size mismatch")
	}
	tp := tapeOf(x, gamma, beta)
	var nd *node
	var xhat, invStd []float64
	var val *tensor.Tensor
	if tp != nil {
		nd = tp.node(layerNormBack, x, gamma, beta)
		nd.buf = floatsCap(nd.buf, n*m)
		nd.buf2 = floatsCap(nd.buf2, n)
		xhat, invStd = nd.buf, nd.buf2
		out := tp.result(nd, n, m)
		val = out.Value
	} else {
		xhat = make([]float64, n*m)
		invStd = make([]float64, n)
		val = tensor.New(n, m)
	}
	for i := 0; i < n; i++ {
		invStd[i] = tensor.LayerNormRow(val.Data[i*m:(i+1)*m], xhat[i*m:(i+1)*m],
			x.Value.Data[i*m:(i+1)*m], gamma.Value.Data, beta.Value.Data, eps)
	}
	if tp == nil {
		return constResult(val)
	}
	return &nd.out
}

func layerNormBack(nd *node) {
	x, gamma, beta := nd.a, nd.b, nd.c
	n, m := x.Value.Shape[0], x.Value.Shape[1]
	xhat, invStd := nd.buf, nd.buf2
	out := &nd.out
	mf := float64(m)
	for i := 0; i < n; i++ {
		sumDy, sumDyXhat := 0.0, 0.0
		for j := 0; j < m; j++ {
			dy := out.Grad.Data[i*m+j] * gamma.Value.Data[j]
			sumDy += dy
			sumDyXhat += dy * xhat[i*m+j]
		}
		for j := 0; j < m; j++ {
			dy := out.Grad.Data[i*m+j]
			if gamma.tape != nil {
				gamma.Grad.Data[j] += dy * xhat[i*m+j]
			}
			if beta.tape != nil {
				beta.Grad.Data[j] += dy
			}
			if x.tape != nil {
				dyg := dy * gamma.Value.Data[j]
				x.Grad.Data[i*m+j] += invStd[i] * (dyg - sumDy/mf - xhat[i*m+j]*sumDyXhat/mf)
			}
		}
	}
}

// RoIBox describes a region of interest in feature-map coordinates for
// RoIAlign. Batch selects the image within the input batch.
type RoIBox struct {
	Batch          int
	X1, Y1, X2, Y2 float64
}

// RoIAlign crops each box from an NCHW feature map and resizes it to
// [size,size] with bilinear interpolation (one sample per bin, the
// simplified RoIAlign used in lightweight Mask R-CNN implementations).
// Output is [R, C, size, size]. Box coordinates are not differentiable.
// The op follows the pooled slot-replay regime: the per-output bilinear
// taps (4 input indices + 4 weights) land in the node's pooled idx/buf
// arrays and backward is a package-level function, so warm passes record
// and replay it without heap allocations.
func RoIAlign(x *Var, boxes []RoIBox, size int) *Var {
	n, c, h, w := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	r := len(boxes)

	tp := tapeOf(x)
	var nd *node
	var val *tensor.Tensor
	var tapIdx []int
	var tapWgt []float64
	outSize := r * c * size * size
	if tp != nil {
		nd = tp.node(roiAlignBack, x, nil, nil)
		val = tp.result(nd, r, c, size, size).Value
		nd.idx = intsCap(nd.idx, 4*outSize)
		nd.buf = floatsCap(nd.buf, 4*outSize)
		tapIdx, tapWgt = nd.idx, nd.buf
	} else {
		val = tensor.New(r, c, size, size)
	}

	oi := 0
	for _, box := range boxes {
		if box.Batch < 0 || box.Batch >= n {
			panic(fmt.Sprintf("autograd: RoIAlign batch %d out of %d", box.Batch, n))
		}
		bw := math.Max(box.X2-box.X1, 1e-6)
		bh := math.Max(box.Y2-box.Y1, 1e-6)
		for ic := 0; ic < c; ic++ {
			base := ((box.Batch*c + ic) * h) * w
			for oy := 0; oy < size; oy++ {
				sy := box.Y1 + (float64(oy)+0.5)*bh/float64(size)
				for ox := 0; ox < size; ox++ {
					sx := box.X1 + (float64(ox)+0.5)*bw/float64(size)
					// Clamp sample point into the feature map.
					cy := math.Min(math.Max(sy, 0), float64(h-1))
					cx := math.Min(math.Max(sx, 0), float64(w-1))
					y0 := int(math.Floor(cy))
					x0 := int(math.Floor(cx))
					y1 := min(y0+1, h-1)
					x1 := min(x0+1, w-1)
					fy := cy - float64(y0)
					fx := cx - float64(x0)
					w00 := (1 - fy) * (1 - fx)
					w01 := (1 - fy) * fx
					w10 := fy * (1 - fx)
					w11 := fy * fx
					i00 := base + y0*w + x0
					i01 := base + y0*w + x1
					i10 := base + y1*w + x0
					i11 := base + y1*w + x1
					val.Data[oi] = w00*x.Value.Data[i00] + w01*x.Value.Data[i01] +
						w10*x.Value.Data[i10] + w11*x.Value.Data[i11]
					if tp != nil {
						o4 := 4 * oi
						tapIdx[o4], tapIdx[o4+1], tapIdx[o4+2], tapIdx[o4+3] = i00, i01, i10, i11
						tapWgt[o4], tapWgt[o4+1], tapWgt[o4+2], tapWgt[o4+3] = w00, w01, w10, w11
					}
					oi++
				}
			}
		}
	}
	if tp == nil {
		return constResult(val)
	}
	return &nd.out
}

func roiAlignBack(nd *node) {
	x := nd.a
	if x.tape == nil {
		return
	}
	for i, g := range nd.out.Grad.Data {
		if g == 0 {
			continue
		}
		o4 := 4 * i
		for k := 0; k < 4; k++ {
			x.Grad.Data[nd.idx[o4+k]] += g * nd.buf[o4+k]
		}
	}
}

// SpatialRows rearranges a conv head output [N, G*K, H, W] into per-anchor
// rows [N*H*W*G, K]: row ordering is image-major, then raster order (y, x),
// then group g. Detection heads use it to turn per-cell, per-anchor channel
// groups into classification/regression rows.
// SpatialRows is a pure index permutation, so backward replays it from the
// node's recorded group width alone (package-level backward, no per-step
// closure or scratch — pooled slot-replay regime).
func SpatialRows(x *Var, k int) *Var {
	n, c, h, w := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	if c%k != 0 {
		panic(fmt.Sprintf("autograd: SpatialRows channels %d not divisible by %d", c, k))
	}
	g := c / k
	rows := n * h * w * g

	tp := tapeOf(x)
	var nd *node
	var val *tensor.Tensor
	if tp != nil {
		nd = tp.node(spatialRowsBack, x, nil, nil)
		nd.i0 = k
		val = tp.result(nd, rows, k).Value
	} else {
		val = tensor.New(rows, k)
	}
	ri := 0
	for in := 0; in < n; in++ {
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				for gi := 0; gi < g; gi++ {
					for ki := 0; ki < k; ki++ {
						ch := gi*k + ki
						val.Data[ri*k+ki] = x.Value.Data[((in*c+ch)*h+y)*w+xx]
					}
					ri++
				}
			}
		}
	}
	if tp == nil {
		return constResult(val)
	}
	return &nd.out
}

func spatialRowsBack(nd *node) {
	x := nd.a
	if x.tape == nil {
		return
	}
	k := nd.i0
	n, c, h, w := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	g := c / k
	ri := 0
	for in := 0; in < n; in++ {
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				for gi := 0; gi < g; gi++ {
					for ki := 0; ki < k; ki++ {
						ch := gi*k + ki
						x.Grad.Data[((in*c+ch)*h+y)*w+xx] += nd.out.Grad.Data[ri*k+ki]
					}
					ri++
				}
			}
		}
	}
}
