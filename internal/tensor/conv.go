package tensor

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/parallel"
)

// ConvOut returns the spatial output size for input size in, kernel k,
// stride s, and symmetric zero padding p.
func ConvOut(in, k, s, p int) int { return (in+2*p-k)/s + 1 }

// Convolution (cross-correlation, as in all DL frameworks) over NCHW input
// x [N,C,H,W] with weights w [F,C,KH,KW] and optional bias b [F] has one
// implementation: im2col, then the packed GEMM engine, one sample chunk at
// a time. With w̃ the [F, C·KH·KW] flattening of w and rows = samples·HO·WO,
//
//	forward:  cols  = im2col(x)          [C·KH·KW, rows]
//	          prod  = w̃·cols             [F, rows]   (MatMul)
//	          out   = fold(prod) + b     [N, F, HO, WO]
//	backward: dprod = unfold(dout)       [F, rows]
//	          dw    = Σ dprod·colsᵀ      (MatMulTransB, one term per chunk)
//	          dx    = col2im(w̃ᵀ·dprod)   (MatMulTransA)
//	          db    = row sums of dprod
//
// The patch matrix is stored tap-major — row (ic, ky, kx) holds that tap's
// input value at every output position of the chunk — so im2col and
// col2im move whole output-row runs, fold and unfold copy whole planes,
// and the GEMMs' long dimension is the chunk's output positions.
//
// Chunking. Each chunk's patch matrix holds at most convChunkBudget floats
// (one sample at least), so the workspaces stay cache-sized and the peak
// footprint does not grow with the batch. The chunk size is derived from
// the layer shape alone — never from the worker count — so chunk
// boundaries, and with them every summation order, are fixed per layer.
//
// Determinism. Every leg shards by disjoint output: the GEMMs by output
// tile, im2col by tap row, fold/unfold by (sample, filter) plane, col2im
// by (sample, channel) plane, db by filter. Partial dw products are added
// in ascending chunk order. Results are therefore bit-identical at every
// worker count.
//
// Summation order. Each forward output element accumulates its terms from
// zero in ascending (ic, ky, kx) order, and the patch matrix holds exact
// zeros where a receptive field overhangs the padding — so without a bias
// the forward is bit-identical to the elementwise reference nest. The bias
// is added after the sum.

// convChunkBudget bounds one chunk's patch matrix: about 16K float64s
// (128 KiB), an L2-sized working set.
const convChunkBudget = 1 << 14

// convForkWork is the least work (multiply-adds for a GEMM, elements for
// a copy leg) a convolution loop must carry before it forks the pool. A
// fork costs CPU on every worker it wakes, and a chunk's loops are small:
// forking at the pool's own threshold more than doubled the CPU time of
// ResNet training on a 2-vCPU host (ttbench resnet_serial cpu_s 3.6 s vs
// 1.6 s serial). Layers big enough to amortize a fork — wide filter banks,
// large single samples — still shard.
const convForkWork = 1 << 18

// convWorkspace is the shared workspace pool of callers that pass no
// allocator (the no-tape Conv2D: pure inference, MiniGo search).
var convWorkspace = arena.New()

// convPass carries one convolution call: the layer geometry, the operands,
// and the chunk in flight with its workspaces. The legs are methods on it,
// so a single dispatcher (shard) forks all of them.
type convPass struct {
	n, c, h, wd int // input batch, channels, and spatial size
	f, kh, kw   int // filters and kernel size
	stride, pad int
	ho, wo      int // output spatial size

	x, w, bias, dout []float64 // operands (bias and dout nil when absent)
	out, dx, db      []float64 // results (nil when not requested)

	s0, s1 int       // the chunk in flight: samples [s0, s1)
	cols   []float64 // chunk patch matrix [C·KH·KW, rows]
	dcols  []float64 // chunk patch-matrix gradient [C·KH·KW, rows]
	mat    []float64 // chunk product (forward) or dout unfold (backward) [F, rows]
}

// newConvPass validates the operands of a convolution and returns its pass.
func newConvPass(x, w *Tensor, stride, pad int) convPass {
	if x.Rank() != 4 || w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D requires rank-4 operands, got %v, %v", x.Shape, w.Shape))
	}
	if x.Shape[1] != w.Shape[1] {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch %v vs %v", x.Shape, w.Shape))
	}
	p := convPass{
		n: x.Shape[0], c: x.Shape[1], h: x.Shape[2], wd: x.Shape[3],
		f: w.Shape[0], kh: w.Shape[2], kw: w.Shape[3],
		stride: stride, pad: pad,
		x: x.Data, w: w.Data,
	}
	p.ho, p.wo = ConvOut(p.h, p.kh, stride, pad), ConvOut(p.wd, p.kw, stride, pad)
	return p
}

func (p *convPass) patch() int { return p.c * p.kh * p.kw }
func (p *convPass) plane() int { return p.ho * p.wo }
func (p *convPass) rows() int  { return (p.s1 - p.s0) * p.plane() }

// chunk returns the samples per chunk: as many as keep the chunk's patch
// matrix within convChunkBudget, and at least one.
func (p *convPass) chunk() int {
	return max(1, convChunkBudget/max(1, p.plane()*p.patch()))
}

// oxRange returns the output columns [lo, hi) whose tap kx falls inside
// the input row; columns outside it read (or write) padding.
func (p *convPass) oxRange(kx int) (lo, hi int) {
	if off := p.pad - kx; off > 0 {
		lo = min(p.wo, (off+p.stride-1)/p.stride)
	}
	if last := p.wd - 1 + p.pad - kx; last >= 0 {
		hi = min(p.wo, last/p.stride+1)
	}
	return lo, max(lo, hi)
}

// Conv2D returns the convolution of x [N,C,H,W] by w [F,C,KH,KW] plus the
// optional bias b [F] (nil for none): [N,F,HO,WO]. Workspaces come from a
// shared pool.
func Conv2D(x, w, b *Tensor, stride, pad int) *Tensor {
	p := newConvPass(x, w, stride, pad)
	out := New(p.n, p.f, p.ho, p.wo)
	Conv2DInto(nil, out, x, w, b, stride, pad)
	return out
}

// Conv2DInto is Conv2D into a caller-owned out [N,F,HO,WO], which is fully
// overwritten. The chunk workspaces come from al (nil: a shared pool) and
// go back to it before return, so a warm caller allocates nothing.
func Conv2DInto(al arena.Allocator, out, x, w, b *Tensor, stride, pad int) {
	p := newConvPass(x, w, stride, pad)
	if out.Size() != p.n*p.f*p.ho*p.wo {
		panic(fmt.Sprintf("tensor: Conv2DInto output %v for input %v, weights %v", out.Shape, x.Shape, w.Shape))
	}
	p.out = out.Data
	if b != nil {
		p.bias = b.Data
	}
	p.forward(al)
}

// Conv2DBackwardInto writes the gradients of a convolution given the
// upstream gradient dout [N,F,HO,WO]: dx (shaped like x), dw (like w) and
// db [F], each fully overwritten. Any of the three may be nil to skip it —
// an input batch needs no dx, a bias-free layer has no db. Workspaces come
// from al (nil: a shared pool) as in Conv2DInto.
func Conv2DBackwardInto(al arena.Allocator, dx, dw, db, x, w, dout *Tensor, stride, pad int) {
	p := newConvPass(x, w, stride, pad)
	if dout.Size() != p.n*p.f*p.ho*p.wo {
		panic(fmt.Sprintf("tensor: Conv2DBackwardInto upstream %v for input %v, weights %v", dout.Shape, x.Shape, w.Shape))
	}
	p.dout = dout.Data
	if dx != nil {
		p.dx = dx.Data
	}
	if db != nil {
		p.db = db.Data
	}
	var dwData []float64
	if dw != nil {
		dwData = dw.Data
	}
	p.backward(al, dwData)
}

// Im2col unfolds NCHW input x into the tap-major [C·KH·KW, N·HO·WO] patch
// matrix the convolution multiplies: row (ic, ky, kx) holds that tap's
// input value at every output position, with zeros where the tap
// overhangs the padding.
func Im2col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2col requires rank-4 input, got %v", x.Shape))
	}
	p := convPass{
		n: x.Shape[0], c: x.Shape[1], h: x.Shape[2], wd: x.Shape[3],
		kh: kh, kw: kw, stride: stride, pad: pad,
		x: x.Data, s1: x.Shape[0],
	}
	p.ho, p.wo = ConvOut(p.h, kh, stride, pad), ConvOut(p.wd, kw, stride, pad)
	cols := New(p.patch(), p.n*p.plane())
	p.cols = cols.Data
	p.shard(legIm2col, p.patch(), float64(p.n*p.plane()))
	return cols
}

// forward computes p.out chunk by chunk: im2col, the GEMM with the
// flattened filter bank, then the fold to NCHW with the bias.
func (p *convPass) forward(al arena.Allocator) {
	if al == nil {
		al = convWorkspace
	}
	patch, plane, cs := p.patch(), p.plane(), p.chunk()
	rowsMax := min(cs, p.n) * plane
	cols := al.GetRaw(patch * rowsMax)
	prod := al.GetRaw(p.f * rowsMax)
	for p.s0 = 0; p.s0 < p.n; p.s0 = p.s1 {
		p.s1 = min(p.s0+cs, p.n)
		rows := p.rows()
		p.cols, p.mat = cols[:patch*rows], prod[:p.f*rows]
		p.shard(legIm2col, patch, float64(rows))
		gemmOp{v: gemmNN, c: p.mat, a: p.w, b: p.cols, n: p.f, k: patch, m: rows, minFork: convForkWork}.run()
		p.shard(legFold, (p.s1-p.s0)*p.f, float64(plane))
	}
	al.Put(prod)
	al.Put(cols)
}

// backward computes p.db over the whole batch, then dw (into dwData, when
// non-nil) and p.dx chunk by chunk. The first chunk's dw product lands in
// dwData directly; each later chunk's lands in a partial that is added on,
// so dw is reduced in ascending chunk order.
func (p *convPass) backward(al arena.Allocator, dwData []float64) {
	if al == nil {
		al = convWorkspace
	}
	if p.db != nil {
		p.shard(legBiasGrad, p.f, float64(p.n*p.plane()))
	}
	if p.dx == nil && dwData == nil {
		return
	}
	patch, plane, cs := p.patch(), p.plane(), p.chunk()
	rowsMax := min(cs, p.n) * plane
	dprod := al.GetRaw(p.f * rowsMax)
	var cols, part, dcols []float64
	if dwData != nil {
		cols = al.GetRaw(patch * rowsMax)
		if p.n > cs {
			part = al.GetRaw(p.f * patch)
		}
	}
	if p.dx != nil {
		dcols = al.GetRaw(patch * rowsMax)
	}
	for p.s0 = 0; p.s0 < p.n; p.s0 = p.s1 {
		p.s1 = min(p.s0+cs, p.n)
		rows := p.rows()
		p.mat = dprod[:p.f*rows]
		p.shard(legUnfold, (p.s1-p.s0)*p.f, float64(plane))
		if dwData != nil {
			p.cols = cols[:patch*rows]
			p.shard(legIm2col, patch, float64(rows))
			dst := dwData
			if p.s0 > 0 {
				dst = part
			}
			gemmOp{v: gemmTB, c: dst, a: p.mat, b: p.cols, n: p.f, k: rows, m: patch, minFork: convForkWork}.run()
			if p.s0 > 0 {
				for i, v := range part {
					dwData[i] += v
				}
			}
		}
		if p.dx != nil {
			p.dcols = dcols[:patch*rows]
			gemmOp{v: gemmTA, c: p.dcols, a: p.w, b: p.mat, n: patch, k: p.f, m: rows, minFork: convForkWork}.run()
			p.shard(legCol2im, (p.s1-p.s0)*p.c, float64(plane*p.kh*p.kw))
		}
	}
	al.Put(dcols)
	al.Put(part)
	al.Put(cols)
	al.Put(dprod)
}

// convLeg names one sharded leaf loop of a convolution pass.
type convLeg uint8

const (
	legIm2col   convLeg = iota // chunk input → patch-matrix tap rows
	legFold                    // chunk product → output planes (+ bias)
	legUnfold                  // upstream-gradient planes → chunk dprod
	legCol2im                  // chunk patch-matrix gradient → dx planes
	legBiasGrad                // whole-batch dout → db, by filter
)

// shard runs one leg over [0, n) on the worker pool. A loop below
// convForkWork runs inline and builds no closure — the warm serial
// step stays at 0 allocs — and only the forking branch copies the pass
// into the workers' closure, so the caller's pass never leaves its stack.
func (p *convPass) shard(leg convLeg, n int, itemCost float64) {
	if total := float64(n) * itemCost; total < convForkWork || !parallel.Worth(total) {
		p.run(leg, 0, n)
		return
	}
	q := *p
	parallel.ForCost(n, itemCost, func(lo, hi int) { q.run(leg, lo, hi) })
}

// run dispatches indices [lo, hi) of one leg.
//
//mlperfvet:hotpath
func (p *convPass) run(leg convLeg, lo, hi int) {
	switch leg {
	case legIm2col:
		p.im2colTaps(lo, hi)
	case legFold:
		p.foldPlanes(lo, hi)
	case legUnfold:
		p.unfoldPlanes(lo, hi)
	case legCol2im:
		p.col2imPlanes(lo, hi)
	case legBiasGrad:
		p.biasGradFilters(lo, hi)
	}
}

// im2colTaps writes tap rows [lo, hi) of the chunk's patch matrix: row
// (ic, ky, kx) gets, at each output position of the chunk, the input value
// under that tap. Every entry is written — padding as an explicit zero —
// so the workspace needs no clearing.
//
//mlperfvet:hotpath
func (p *convPass) im2colTaps(lo, hi int) {
	x, stride, wd, wo, ho := p.x, p.stride, p.wd, p.wo, p.ho
	rows, hw, khw := p.rows(), p.h*wd, p.kh*p.kw
	for t := lo; t < hi; t++ {
		ic, ky, kx := t/khw, t%khw/p.kw, t%p.kw
		oxLo, oxHi := p.oxRange(kx)
		dst := p.cols[t*rows : (t+1)*rows]
		for li := 0; li < p.s1-p.s0; li++ {
			xc := x[((p.s0+li)*p.c+ic)*hw : ((p.s0+li)*p.c+ic+1)*hw]
			for oy := 0; oy < ho; oy++ {
				seg := dst[(li*ho+oy)*wo : (li*ho+oy+1)*wo]
				iy := oy*stride - p.pad + ky
				if iy < 0 || iy >= p.h {
					clear(seg)
					continue
				}
				clear(seg[:oxLo])
				clear(seg[oxHi:])
				xr := xc[iy*wd : (iy+1)*wd]
				if stride == 1 {
					copy(seg[oxLo:oxHi], xr[oxLo+kx-p.pad:])
					continue
				}
				for ox := oxLo; ox < oxHi; ox++ {
					seg[ox] = xr[ox*stride+kx-p.pad]
				}
			}
		}
	}
}

// foldPlanes writes output planes [lo, hi) of the chunk — plane q is
// (sample s0 + q/F, filter q%F) — from the chunk product, adding the bias.
//
//mlperfvet:hotpath
func (p *convPass) foldPlanes(lo, hi int) {
	plane, rows := p.plane(), p.rows()
	for q := lo; q < hi; q++ {
		li, of := q/p.f, q%p.f
		dst := p.out[(p.s0*p.f+q)*plane : (p.s0*p.f+q+1)*plane]
		src := p.mat[of*rows+li*plane : of*rows+(li+1)*plane]
		if p.bias == nil {
			copy(dst, src)
			continue
		}
		bv := p.bias[of]
		for i, v := range src {
			dst[i] = v + bv
		}
	}
}

// unfoldPlanes copies upstream-gradient planes [lo, hi) of the chunk
// (numbered as in foldPlanes) into the chunk's [F, rows] dprod.
//
//mlperfvet:hotpath
func (p *convPass) unfoldPlanes(lo, hi int) {
	plane, rows := p.plane(), p.rows()
	for q := lo; q < hi; q++ {
		li, of := q/p.f, q%p.f
		copy(p.mat[of*rows+li*plane:of*rows+(li+1)*plane], p.dout[(p.s0*p.f+q)*plane:(p.s0*p.f+q+1)*plane])
	}
}

// col2imPlanes writes dx planes [lo, hi) of the chunk — plane q is
// (sample s0 + q/C, channel q%C): it clears the plane, then adds back
// every tap row of that channel in ascending (ky, kx) order. Planes own
// disjoint slices of dx, and each dx element receives at most one term
// per tap.
//
//mlperfvet:hotpath
func (p *convPass) col2imPlanes(lo, hi int) {
	stride, wd, wo, ho := p.stride, p.wd, p.wo, p.ho
	rows, plane, hw := p.rows(), p.plane(), p.h*wd
	for q := lo; q < hi; q++ {
		li, ic := q/p.c, q%p.c
		dxp := p.dx[(p.s0*p.c+q)*hw : (p.s0*p.c+q+1)*hw]
		clear(dxp)
		for ky := 0; ky < p.kh; ky++ {
			for kx := 0; kx < p.kw; kx++ {
				oxLo, oxHi := p.oxRange(kx)
				t := (ic*p.kh+ky)*p.kw + kx
				src := p.dcols[t*rows+li*plane : t*rows+(li+1)*plane]
				for oy := 0; oy < ho; oy++ {
					iy := oy*stride - p.pad + ky
					if iy < 0 || iy >= p.h {
						continue
					}
					dr := dxp[iy*wd : (iy+1)*wd]
					g := src[oy*wo : (oy+1)*wo]
					if stride == 1 {
						d := dr[oxLo+kx-p.pad:]
						for ox := oxLo; ox < oxHi; ox++ {
							d[ox-oxLo] += g[ox]
						}
						continue
					}
					for ox := oxLo; ox < oxHi; ox++ {
						dr[ox*stride+kx-p.pad] += g[ox]
					}
				}
			}
		}
	}
}

// biasGradFilters writes db for filters [lo, hi): each is the row sum of
// the whole batch's dprod, accumulated in ascending (sample, position)
// order straight from dout, independent of the chunking.
//
//mlperfvet:hotpath
func (p *convPass) biasGradFilters(lo, hi int) {
	plane := p.plane()
	for of := lo; of < hi; of++ {
		s := 0.0
		for in := 0; in < p.n; in++ {
			for _, g := range p.dout[(in*p.f+of)*plane : (in*p.f+of+1)*plane] {
				s += g
			}
		}
		p.db[of] = s
	}
}

// MaxPool2D computes max pooling over NCHW input with square window k and
// stride s. It returns the pooled tensor and the flat argmax index (into
// x.Data) of each output element, which MaxPool2DBackward consumes.
func MaxPool2D(x *Tensor, k, s int) (*Tensor, []int) {
	n, c := x.Shape[0], x.Shape[1]
	ho, wo := ConvOut(x.Shape[2], k, s, 0), ConvOut(x.Shape[3], k, s, 0)
	out := New(n, c, ho, wo)
	arg := make([]int, out.Size())
	MaxPool2DInto(out, arg, x, k, s)
	return out, arg
}

// MaxPool2DInto is MaxPool2D with caller-owned output storage: out must
// have the pooled shape and arg length out.Size().
//
//mlperfvet:hotpath
func MaxPool2DInto(out *Tensor, arg []int, x *Tensor, k, s int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	ho, wo := out.Shape[2], out.Shape[3]
	oi := 0
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			base := ((in*c + ic) * h) * w
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					best := 0.0
					bi := -1
					for ky := 0; ky < k; ky++ {
						iy := oy*s + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s + kx
							if ix >= w {
								continue
							}
							idx := base + iy*w + ix
							if bi < 0 || x.Data[idx] > best {
								best, bi = x.Data[idx], idx
							}
						}
					}
					out.Data[oi] = best
					arg[oi] = bi
					oi++
				}
			}
		}
	}
}

// MaxPool2DBackward scatters upstream grads through the argmax indices.
func MaxPool2DBackward(xShape []int, arg []int, dout *Tensor) *Tensor {
	dx := New(xShape...)
	for i, g := range dout.Data {
		if arg[i] >= 0 {
			dx.Data[arg[i]] += g
		}
	}
	return dx
}

// GlobalAvgPool2D averages each channel's spatial plane: [N,C,H,W] → [N,C].
func GlobalAvgPool2D(x *Tensor) *Tensor {
	out := New(x.Shape[0], x.Shape[1])
	GlobalAvgPool2DInto(out, x)
	return out
}

// GlobalAvgPool2DInto is GlobalAvgPool2D with caller-owned output storage
// (out must be [N,C]).
//
//mlperfvet:hotpath
func GlobalAvgPool2DInto(out, x *Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	plane := h * w
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			base := ((in*c + ic) * h) * w
			s := 0.0
			for p := 0; p < plane; p++ {
				s += x.Data[base+p]
			}
			out.Data[in*c+ic] = s / float64(plane)
		}
	}
}

// GlobalAvgPool2DBackward spreads each channel grad uniformly over the plane.
func GlobalAvgPool2DBackward(xShape []int, dout *Tensor) *Tensor {
	n, c, h, w := xShape[0], xShape[1], xShape[2], xShape[3]
	dx := New(xShape...)
	plane := h * w
	inv := 1.0 / float64(plane)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			g := dout.Data[in*c+ic] * inv
			base := ((in*c + ic) * h) * w
			for p := 0; p < plane; p++ {
				dx.Data[base+p] += g
			}
		}
	}
	return dx
}

// AvgPool2D computes average pooling with square window k and stride s.
func AvgPool2D(x *Tensor, k, s int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	ho, wo := ConvOut(h, k, s, 0), ConvOut(w, k, s, 0)
	out := New(n, c, ho, wo)
	oi := 0
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			base := ((in*c + ic) * h) * w
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					s2, cnt := 0.0, 0
					for ky := 0; ky < k; ky++ {
						iy := oy*s + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s + kx
							if ix >= w {
								continue
							}
							s2 += x.Data[base+iy*w+ix]
							cnt++
						}
					}
					out.Data[oi] = s2 / float64(cnt)
					oi++
				}
			}
		}
	}
	return out
}
