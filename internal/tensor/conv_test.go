package tensor

import (
	"fmt"
	"math"
	"testing"
)

// conv2DNaiveRef is the retained elementwise reference for the
// convolution forward: the original (oy, ox, ic, ky, kx) nest with bias
// first and out-of-bounds taps skipped. Without a bias the im2col + GEMM
// path must reproduce it bit for bit (same ascending terms from zero;
// padding contributes exact zeros); with one, to within convTol.
func conv2DNaiveRef(x, w, b *Tensor, stride, pad int) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	ho, wo := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	out := New(n, f, ho, wo)
	for in := 0; in < n; in++ {
		for of := 0; of < f; of++ {
			bias := 0.0
			if b != nil {
				bias = b.Data[of]
			}
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					s := bias
					iy0, ix0 := oy*stride-pad, ox*stride-pad
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < kh; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= wd {
									continue
								}
								s += x.Data[((in*c+ic)*h+iy)*wd+ix] * w.Data[((of*c+ic)*kh+ky)*kw+kx]
							}
						}
					}
					out.Data[((in*f+of)*ho+oy)*wo+ox] = s
				}
			}
		}
	}
	return out
}

// conv2DBackwardNaiveRef is the elementwise reference for the
// convolution backward: every (sample, filter, position) upstream term
// is scattered onto dx and gathered into dw and db directly, skipping
// out-of-bounds taps.
func conv2DBackwardNaiveRef(x, w, dout *Tensor, stride, pad int) (dx, dw, db *Tensor) {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	ho, wo := dout.Shape[2], dout.Shape[3]
	dx, dw, db = New(x.Shape...), New(w.Shape...), New(f)
	for in := 0; in < n; in++ {
		for of := 0; of < f; of++ {
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					g := dout.Data[((in*f+of)*ho+oy)*wo+ox]
					db.Data[of] += g
					iy0, ix0 := oy*stride-pad, ox*stride-pad
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < kh; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= wd {
									continue
								}
								xi := ((in*c+ic)*h+iy)*wd + ix
								wi := ((of*c+ic)*kh+ky)*kw + kx
								dx.Data[xi] += g * w.Data[wi]
								dw.Data[wi] += g * x.Data[xi]
							}
						}
					}
				}
			}
		}
	}
	return dx, dw, db
}

// convBackward runs Conv2DBackwardInto into fresh gradients; db is nil
// unless hasBias.
func convBackward(x, w, dout *Tensor, stride, pad int, hasBias bool) (dx, dw, db *Tensor) {
	dx, dw = New(x.Shape...), New(w.Shape...)
	if hasBias {
		db = New(w.Shape[0])
	}
	Conv2DBackwardInto(nil, dx, dw, db, x, w, dout, stride, pad)
	return dx, dw, db
}

// convTol is the relative tolerance for results whose summation order
// differs from the elementwise references (the bias-carrying forward and
// every backward leg): |got − want| ≤ convTol · max(1, max|want|).
const convTol = 1e-12

// closeTo fails unless got matches want within convTol.
func closeTo(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: size %d vs %d", label, len(got.Data), len(want.Data))
	}
	scale := 1.0
	for _, v := range want.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > convTol*scale {
			t.Fatalf("%s elem %d: got %v, reference %v (|Δ|=%g, scale %g)", label, i, got.Data[i], want.Data[i], d, scale)
		}
	}
}

// convEdgeShapes cross the chunking and GEMM dispatch edges: a batch
// that is not a multiple of the chunk, single samples larger than the
// chunk budget, strides 2 and 3 with and without padding, kernels that
// do not tile the input evenly, padding wider than the kernel, patches
// deeper than one GEMM KC panel (C·KH·KW > 256) or narrower than the
// micro-kernel (C·KH·KW < 8: the naive GEMM branch), filter counts on
// both sides of the micro-kernel's MR = 4, and layers big enough that
// every leg forks the pool.
var convEdgeShapes = []struct{ n, c, h, w, f, k, stride, pad int }{
	{2, 3, 9, 9, 4, 3, 1, 1},
	{1, 2, 8, 8, 3, 3, 2, 1},
	{2, 4, 7, 7, 5, 1, 1, 0},
	{1, 3, 10, 6, 2, 5, 1, 2},
	{1, 1, 5, 5, 1, 3, 1, 4}, // padding wider than the kernel
	{2, 2, 6, 6, 3, 2, 2, 0},
	{1, 2, 4, 11, 2, 3, 3, 1},
	{2, 3, 12, 12, 8, 3, 1, 1},
	{2, 2, 9, 9, 4, 3, 2, 1},
	{7, 3, 10, 10, 6, 3, 1, 1},   // ResNet stem: 6-sample chunks, 7 samples
	{3, 6, 10, 10, 12, 1, 2, 0},  // 1×1 stride-2 downsample
	{3, 2, 9, 9, 8, 4, 2, 0},     // pad 0, kernel overhangs the last stride
	{2, 4, 24, 24, 8, 3, 1, 1},   // one sample exceeds the chunk budget
	{3, 32, 6, 6, 16, 3, 1, 1},   // C·KH·KW = 288 > 256
	{2, 16, 48, 48, 8, 3, 1, 1},  // forks the GEMMs, im2col and col2im
	{4, 4, 16, 16, 512, 1, 1, 0}, // forks the GEMMs, fold, unfold and db
}

// TestConv2DForwardMatchesNaiveRef pins the one convolution to the
// elementwise reference across kernel sizes (incl. 1x1 convs), strides,
// paddings and the chunking/GEMM edges: bit for bit without a bias,
// within convTol with one (the bias is added after the sum).
func TestConv2DForwardMatchesNaiveRef(t *testing.T) {
	rng := NewRNG(61)
	for _, cfg := range convEdgeShapes {
		x := Randn(rng, 1, cfg.n, cfg.c, cfg.h, cfg.w)
		w := Randn(rng, 1, cfg.f, cfg.c, cfg.k, cfg.k)
		bias := Randn(rng, 1, cfg.f)
		sparsify(rng, x)
		want := conv2DNaiveRef(x, w, nil, cfg.stride, cfg.pad)
		got := Conv2D(x, w, nil, cfg.stride, cfg.pad)
		if len(got.Data) != len(want.Data) {
			t.Fatalf("%+v: size %d vs %d", cfg, len(got.Data), len(want.Data))
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%+v elem %d: got %v, reference %v", cfg, i, got.Data[i], want.Data[i])
			}
		}
		closeTo(t, fmt.Sprintf("%+v bias", cfg), Conv2D(x, w, bias, cfg.stride, cfg.pad),
			conv2DNaiveRef(x, w, bias, cfg.stride, cfg.pad))
	}
}

// TestConv2DIm2colBackwardMatchesDirect checks the backward against the
// elementwise reference (equal up to summation order) on every edge
// shape, its bit-determinism across worker counts, and that skipped
// gradients leave the others' bits unchanged.
func TestConv2DIm2colBackwardMatchesDirect(t *testing.T) {
	rng := NewRNG(67)
	for _, cfg := range convEdgeShapes {
		x := Randn(rng, 1, cfg.n, cfg.c, cfg.h, cfg.w)
		w := Randn(rng, 1, cfg.f, cfg.c, cfg.k, cfg.k)
		ho, wo := ConvOut(cfg.h, cfg.k, cfg.stride, cfg.pad), ConvOut(cfg.w, cfg.k, cfg.stride, cfg.pad)
		dout := Randn(rng, 1, cfg.n, cfg.f, ho, wo)
		sparsify(rng, dout)
		label := fmt.Sprintf("%+v", cfg)

		var sdx, sdw, sdb *Tensor
		withWorkers(t, 1, func() { sdx, sdw, sdb = convBackward(x, w, dout, cfg.stride, cfg.pad, true) })
		rdx, rdw, rdb := conv2DBackwardNaiveRef(x, w, dout, cfg.stride, cfg.pad)
		closeTo(t, label+"/dx", sdx, rdx)
		closeTo(t, label+"/dw", sdw, rdw)
		closeTo(t, label+"/db", sdb, rdb)

		for _, wk := range workerCounts {
			withWorkers(t, wk, func() {
				dx, dw, db := convBackward(x, w, dout, cfg.stride, cfg.pad, true)
				sameBits(t, label+"/dx", wk, dx, sdx)
				sameBits(t, label+"/dw", wk, dw, sdw)
				sameBits(t, label+"/db", wk, db, sdb)
			})
		}

		// Skipping db, then dx, then dw leaves the remaining legs' bits
		// unchanged.
		dx, dw := New(x.Shape...), New(w.Shape...)
		Conv2DBackwardInto(nil, dx, dw, nil, x, w, dout, cfg.stride, cfg.pad)
		sameBits(t, label+"/dx-nobias", 1, dx, sdx)
		sameBits(t, label+"/dw-nobias", 1, dw, sdw)
		dw2, db2 := New(w.Shape...), New(cfg.f)
		Conv2DBackwardInto(nil, nil, dw2, db2, x, w, dout, cfg.stride, cfg.pad)
		sameBits(t, label+"/dw-nodx", 1, dw2, sdw)
		sameBits(t, label+"/db-nodx", 1, db2, sdb)
		dx3 := New(x.Shape...)
		Conv2DBackwardInto(nil, dx3, nil, nil, x, w, dout, cfg.stride, cfg.pad)
		sameBits(t, label+"/dx-nodw", 1, dx3, sdx)
	}
}
