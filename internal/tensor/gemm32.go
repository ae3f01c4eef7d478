package tensor

// Float32 port of the blocked, packed, register-tiled GEMM engine
// (gemm.go) — the hot path of the reduced-precision compute regimes. The
// decomposition, dispatch thresholds, and determinism contract are the
// float64 engine's verbatim; see gemm.go for the full rationale. What
// changes is the register tile: float32 packs eight lanes per YMM, so the
// micro-kernel grows to an 8×8 tile — eight rows of eight columns, one
// vector register per row — doubling the elements each vector op touches
// while keeping the same eight-accumulator register budget.
//
// Determinism contract (same as f64): every output element accumulates its
// k terms in strictly ascending order with a separate mul then add per
// term (no FMA), accumulators carried in float32 throughout, so the
// blocked engine, the assembly kernel, and the naive MatMulF32*Rows
// reference kernels all produce identical float32 bits on finite inputs at
// every worker count and block size. Not bit-equal to the float64 engine —
// that cross-regime gap is what core.StatCheck gates statistically.

import (
	"repro/internal/arena"
	"repro/internal/parallel"
)

// Blocking parameters. The 8×8 register tile holds the C tile in eight
// YMM accumulators (eight float32 lanes each). The cache blocks keep the
// same element counts as the f64 engine, which halves their byte
// footprint: KC×NR B strips (8 KiB) and KC×MR A panels (8 KiB) stay
// L1-resident; MC×KC A blocks (64 KiB) target L2; KC×NC B panels
// (512 KiB) the LLC.
const (
	gemm32MR = 8
	gemm32NR = 8
	gemm32MC = 64
	gemm32KC = 256
	gemm32NC = 512
)

// gemmPack32 pools the float32 A/B pack buffers across calls and
// goroutines — the Arena32 instantiation of the pack pool.
var gemmPack32 = arena.New32()

// gemm32Into computes the [n,m] float32 product into c for the given
// variant, with the same three-way dispatch as gemmInto: naive reference
// kernels for tiny or narrow shapes, serial blocked run, or 2-D tiled
// parallel blocked run — all bit-identical.
func gemm32Into(v gemmVariant, c, a, b *F32, n, k, m int) {
	if n == 0 || m == 0 {
		return
	}
	work := n * k * m
	if k == 0 || m < gemm32NR || work < gemmMinWork {
		gemm32Naive(v, c, a, b, n, k, m)
		return
	}
	if !parallel.Worth(float64(work)) {
		gemm32Tile(v, c, a, b, k, 0, n, 0, m)
		return
	}
	parallel.ForTiles(n, m, float64(k), func(r0, r1, c0, c1 int) {
		gemm32Tile(v, c, a, b, k, r0, r1, c0, c1)
	})
}

func gemm32Naive(v gemmVariant, c, a, b *F32, n, k, m int) {
	if !parallel.Worth(float64(n * k * m)) {
		gemm32NaiveRows(v, c, a, b, 0, n)
		return
	}
	parallel.ForCost(n, float64(k*m), func(lo, hi int) {
		gemm32NaiveRows(v, c, a, b, lo, hi)
	})
}

//mlperfvet:hotpath
func gemm32NaiveRows(v gemmVariant, c, a, b *F32, lo, hi int) {
	switch v {
	case gemmNN:
		MatMulF32Rows(c, a, b, lo, hi)
	case gemmTA:
		MatMulF32TransARows(c, a, b, lo, hi)
	default:
		MatMulF32TransBRows(c, a, b, lo, hi)
	}
}

// gemm32Tile computes the output tile [r0, r1) × [c0, c1) of the blocked
// float32 product — the f64 gemmOp.tile with the 8×8 micro-kernel.
//
//mlperfvet:hotpath
func gemm32Tile(v gemmVariant, c, a, b *F32, k, r0, r1, c0, c1 int) {
	ldc := c.Shape[1]
	if k == 0 {
		for i := r0; i < r1; i++ {
			row := c.Data[i*ldc+c0 : i*ldc+c1]
			for j := range row {
				row[j] = 0
			}
		}
		return
	}
	kcMax := min(gemm32KC, k)
	mcMax := (min(gemm32MC, r1-r0) + gemm32MR - 1) / gemm32MR * gemm32MR
	ncMax := (min(gemm32NC, c1-c0) + gemm32NR - 1) / gemm32NR * gemm32NR
	abuf := gemmPack32.GetRaw(mcMax * kcMax)
	bbuf := gemmPack32.GetRaw(ncMax * kcMax)
	for jc := c0; jc < c1; jc += gemm32NC {
		nc := min(gemm32NC, c1-jc)
		for pc := 0; pc < k; pc += gemm32KC {
			kc := min(gemm32KC, k-pc)
			if v == gemmTB {
				packBTransF32(bbuf, b.Data, b.Shape[1], pc, kc, jc, nc)
			} else {
				packBNormalF32(bbuf, b.Data, b.Shape[1], pc, kc, jc, nc)
			}
			first := pc == 0
			for ic := r0; ic < r1; ic += gemm32MC {
				mc := min(gemm32MC, r1-ic)
				if v == gemmTA {
					packATransF32(abuf, a.Data, a.Shape[1], ic, mc, pc, kc)
				} else {
					packANormalF32(abuf, a.Data, a.Shape[1], ic, mc, pc, kc)
				}
				for s := 0; s*gemm32NR < nc; s++ {
					nr := min(gemm32NR, nc-s*gemm32NR)
					bp := bbuf[s*gemm32NR*kc:]
					for t := 0; t*gemm32MR < mc; t++ {
						mr := min(gemm32MR, mc-t*gemm32MR)
						ap := abuf[t*gemm32MR*kc:]
						co := (ic+t*gemm32MR)*ldc + jc + s*gemm32NR
						if mr == gemm32MR && nr == gemm32NR {
							if gemmUseAsm {
								microKernel8x8AVX2F32(&c.Data[co], ldc, &ap[0], &bp[0], kc, first)
							} else {
								microKernel8x8F32(c.Data, co, ldc, ap, bp, kc, first)
							}
						} else {
							microKernelEdgeF32(c.Data, co, ldc, ap, bp, kc, mr, nr, first)
						}
					}
				}
			}
		}
	}
	gemmPack32.Put(bbuf)
	gemmPack32.Put(abuf)
}

// packANormalF32 stages rows [i0, i0+mc) × depth [p0, p0+kc) of a
// row-major [·, lda] A operand into MR-tall, depth-major ([kc][MR])
// panels, zero-padding rows past mc — the padded lanes compute into
// accumulators that are never stored.
//
//mlperfvet:hotpath
func packANormalF32(dst, a []float32, lda, i0, mc, p0, kc int) {
	for t := 0; t*gemm32MR < mc; t++ {
		rows := min(gemm32MR, mc-t*gemm32MR)
		base := t * gemm32MR * kc
		r0 := (i0 + t*gemm32MR) * lda
		for p := 0; p < kc; p++ {
			d := dst[base+p*gemm32MR : base+p*gemm32MR+gemm32MR : base+p*gemm32MR+gemm32MR]
			src := r0 + p0 + p
			for r := 0; r < rows; r++ {
				d[r] = a[src+r*lda]
			}
			for r := rows; r < gemm32MR; r++ {
				d[r] = 0
			}
		}
	}
}

// packATransF32 is packANormalF32 for A = aᵀ with a stored [k, n]:
// logical A[i, p] = a[p·lda + i].
//
//mlperfvet:hotpath
func packATransF32(dst, a []float32, lda, i0, mc, p0, kc int) {
	for t := 0; t*gemm32MR < mc; t++ {
		rows := min(gemm32MR, mc-t*gemm32MR)
		base := t * gemm32MR * kc
		c0 := i0 + t*gemm32MR
		for p := 0; p < kc; p++ {
			d := dst[base+p*gemm32MR : base+p*gemm32MR+gemm32MR : base+p*gemm32MR+gemm32MR]
			src := a[(p0+p)*lda+c0 : (p0+p)*lda+c0+rows]
			for r, v := range src {
				d[r] = v
			}
			for r := rows; r < gemm32MR; r++ {
				d[r] = 0
			}
		}
	}
}

// packBNormalF32 stages depth [p0, p0+kc) × columns [j0, j0+nc) of a
// row-major [·, ldb] B operand into NR-wide, depth-major ([kc][NR])
// strips, zero-padding columns past nc.
//
//mlperfvet:hotpath
func packBNormalF32(dst, b []float32, ldb, p0, kc, j0, nc int) {
	for s := 0; s*gemm32NR < nc; s++ {
		w := min(gemm32NR, nc-s*gemm32NR)
		base := s * gemm32NR * kc
		c0 := j0 + s*gemm32NR
		for p := 0; p < kc; p++ {
			d := dst[base+p*gemm32NR : base+p*gemm32NR+gemm32NR : base+p*gemm32NR+gemm32NR]
			src := b[(p0+p)*ldb+c0 : (p0+p)*ldb+c0+w]
			for q, v := range src {
				d[q] = v
			}
			for q := w; q < gemm32NR; q++ {
				d[q] = 0
			}
		}
	}
}

// packBTransF32 is packBNormalF32 for B = bᵀ with b stored [m, k]:
// logical B[p, j] = b[j·ldb + p]. Columns iterate outermost so each source
// row of b is read once, contiguously.
//
//mlperfvet:hotpath
func packBTransF32(dst, b []float32, ldb, p0, kc, j0, nc int) {
	for s := 0; s*gemm32NR < nc; s++ {
		w := min(gemm32NR, nc-s*gemm32NR)
		base := s * gemm32NR * kc
		for q := 0; q < gemm32NR; q++ {
			if q >= w {
				for p := 0; p < kc; p++ {
					dst[base+p*gemm32NR+q] = 0
				}
				continue
			}
			src := b[(j0+s*gemm32NR+q)*ldb+p0 : (j0+s*gemm32NR+q)*ldb+p0+kc]
			for p, v := range src {
				dst[base+p*gemm32NR+q] = v
			}
		}
	}
}

// microKernel8x8F32 is the portable register-tiled micro-kernel: a full
// MR×NR = 8×8 float32 tile of C accumulated over kc packed depth steps.
// Each depth step adds exactly one mul-then-add term per element, in
// ascending depth order — the serial bits. The amd64 build replaces it
// with the AVX2 assembly kernel (gemm32_amd64.s), which performs the same
// lane-wise IEEE operations.
//
//mlperfvet:hotpath
func microKernel8x8F32(cd []float32, co, ldc int, ap, bp []float32, kc int, first bool) {
	var acc [gemm32MR * gemm32NR]float32
	if !first {
		for r := 0; r < gemm32MR; r++ {
			row := cd[co+r*ldc : co+r*ldc+gemm32NR]
			copy(acc[r*gemm32NR:(r+1)*gemm32NR], row)
		}
	}
	ap = ap[: gemm32MR*kc : gemm32MR*kc]
	bp = bp[: gemm32NR*kc : gemm32NR*kc]
	for p := 0; p < kc; p++ {
		a := ap[p*gemm32MR : p*gemm32MR+gemm32MR : p*gemm32MR+gemm32MR]
		b := bp[p*gemm32NR : p*gemm32NR+gemm32NR : p*gemm32NR+gemm32NR]
		b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
		for r := 0; r < gemm32MR; r++ {
			av := a[r]
			row := acc[r*gemm32NR : r*gemm32NR+gemm32NR : r*gemm32NR+gemm32NR]
			row[0] += av * b0
			row[1] += av * b1
			row[2] += av * b2
			row[3] += av * b3
			row[4] += av * b4
			row[5] += av * b5
			row[6] += av * b6
			row[7] += av * b7
		}
	}
	for r := 0; r < gemm32MR; r++ {
		copy(cd[co+r*ldc:co+r*ldc+gemm32NR], acc[r*gemm32NR:(r+1)*gemm32NR])
	}
}

// microKernelEdgeF32 handles partial tiles at the right/bottom block
// edges: it computes the full padded MR×NR tile but loads and stores only
// the real mr×nr elements. Same ascending-depth accumulation, so edge
// tiles match the serial bits too.
//
//mlperfvet:hotpath
func microKernelEdgeF32(cd []float32, co, ldc int, ap, bp []float32, kc, mr, nr int, first bool) {
	var acc [gemm32MR * gemm32NR]float32
	if !first {
		for r := 0; r < mr; r++ {
			row := cd[co+r*ldc : co+r*ldc+nr]
			for q, v := range row {
				acc[r*gemm32NR+q] = v
			}
		}
	}
	for p := 0; p < kc; p++ {
		a := ap[p*gemm32MR : p*gemm32MR+gemm32MR : p*gemm32MR+gemm32MR]
		b := bp[p*gemm32NR : p*gemm32NR+gemm32NR : p*gemm32NR+gemm32NR]
		for r := 0; r < mr; r++ {
			av := a[r]
			row := acc[r*gemm32NR : r*gemm32NR+gemm32NR : r*gemm32NR+gemm32NR]
			row[0] += av * b[0]
			row[1] += av * b[1]
			row[2] += av * b[2]
			row[3] += av * b[3]
			row[4] += av * b[4]
			row[5] += av * b[5]
			row[6] += av * b[6]
			row[7] += av * b[7]
		}
	}
	for r := 0; r < mr; r++ {
		row := cd[co+r*ldc : co+r*ldc+nr]
		for q := range row {
			row[q] = acc[r*gemm32NR+q]
		}
	}
}
