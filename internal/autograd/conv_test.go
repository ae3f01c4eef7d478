package autograd

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/arena"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// convPassResult is one tape forward+backward of a convolution: the
// output and the three parameter gradients (db nil without a bias).
type convPassResult struct{ out, dx, dw, db *tensor.Tensor }

// runConvPass runs Conv2D forward and backward on a fresh arena-backed
// tape at the given pool width, with a fixed mask as the upstream
// gradient, and returns deep copies of the results.
func runConvPass(workers int, x, w, b *Param, mask *tensor.Tensor, stride, pad int) convPassResult {
	old := parallel.Workers()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(old)
	for _, p := range []*Param{x, w, b} {
		if p != nil {
			p.ZeroGrad()
		}
	}
	local := arena.New().NewLocal()
	tape := NewTapeIn(local)
	defer local.Flush()
	defer tape.ReleaseBuffers()
	var bv *Var
	if b != nil {
		bv = tape.Watch(b)
	}
	out := Conv2D(tape.Watch(x), tape.Watch(w), bv, stride, pad)
	tape.Backward(Sum(Mul(out, tape.ConstOf(mask))))
	r := convPassResult{out: out.Value.Clone(), dx: x.Grad.Clone(), dw: w.Grad.Clone()}
	if b != nil {
		r.db = b.Grad.Clone()
	}
	return r
}

// TestConv2DWorkerCountBitIdentical runs the tape convolution forward and
// backward at 1, 2, 3, 4 and 8 workers on shapes that cross every edge of
// the chunked im2col + GEMM path, and requires identical bits: a batch
// that is not a multiple of the chunk, a single sample larger than the
// chunk budget, stride 2 and the 1×1 stride-2 downsample, pad 0 with a
// kernel that overhangs the last stride, C·KH·KW > 256 (two GEMM KC
// panels), F < 8 and F ≥ 8 filters, and patches narrower than the
// micro-kernel (C·KH·KW < 8: the naive GEMM branch). The last two shapes
// are big enough to fork: the first every GEMM plus im2col and col2im,
// the second every GEMM plus fold, unfold and the bias gradient.
func TestConv2DWorkerCountBitIdentical(t *testing.T) {
	for i, cfg := range []struct {
		n, c, h, w, f, k, stride, pad int
		bias                          bool
	}{
		{7, 3, 10, 10, 6, 3, 1, 1, false},  // ResNet stem, 6-sample chunks; F < 8
		{2, 8, 24, 24, 8, 3, 1, 1, true},   // one sample exceeds the budget
		{5, 6, 10, 10, 12, 3, 2, 1, false}, // stride 2
		{9, 6, 10, 10, 12, 1, 2, 0, false}, // 1×1 stride-2 downsample
		{3, 2, 9, 9, 8, 4, 2, 0, true},     // pad 0, overhanging kernel
		{3, 32, 6, 6, 16, 3, 1, 1, false},  // C·KH·KW = 288 > 256
		{2, 16, 48, 48, 8, 3, 1, 1, true},  // large samples: GEMMs, im2col, col2im fork
		{4, 4, 16, 16, 512, 1, 1, 0, true}, // wide 1×1: GEMMs, fold, unfold, db fork
	} {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			rng := tensor.NewRNG(uint64(90 + i))
			x := NewParam("x", tensor.Randn(rng, 1, cfg.n, cfg.c, cfg.h, cfg.w))
			w := NewParam("w", tensor.Randn(rng, 0.3, cfg.f, cfg.c, cfg.k, cfg.k))
			var b *Param
			if cfg.bias {
				b = NewParam("b", tensor.Randn(rng, 0.3, cfg.f))
			}
			ho := tensor.ConvOut(cfg.h, cfg.k, cfg.stride, cfg.pad)
			wo := tensor.ConvOut(cfg.w, cfg.k, cfg.stride, cfg.pad)
			mask := tensor.Randn(rng, 1, cfg.n, cfg.f, ho, wo)

			ref := runConvPass(1, x, w, b, mask, cfg.stride, cfg.pad)
			for _, wk := range []int{2, 3, 4, 8} {
				got := runConvPass(wk, x, w, b, mask, cfg.stride, cfg.pad)
				for _, leg := range []struct {
					name      string
					got, want *tensor.Tensor
				}{{"out", got.out, ref.out}, {"dx", got.dx, ref.dx}, {"dw", got.dw, ref.dw}, {"db", got.db, ref.db}} {
					if leg.want == nil {
						continue
					}
					for j := range leg.want.Data {
						if math.Float64bits(leg.got.Data[j]) != math.Float64bits(leg.want.Data[j]) {
							t.Fatalf("%+v workers=%d %s elem %d: %v vs %v (serial)",
								cfg, wk, leg.name, j, leg.got.Data[j], leg.want.Data[j])
						}
					}
				}
			}
		})
	}
}
