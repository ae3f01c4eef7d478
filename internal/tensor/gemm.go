package tensor

// Blocked, packed, register-tiled GEMM engine — the hot path under every
// workload in the suite (NCF/Transformer dense layers directly; ResNet and
// detection via the im2col convolution route).
//
// The structure is the classic GotoBLAS / BLIS decomposition (Goto & van
// de Geijn, "Anatomy of High-Performance Matrix Multiplication"):
//
//	for jc over columns in NC blocks        (B panel → last-level cache)
//	  for pc over depth in KC panels        (ascending — see below)
//	    pack B[pc:pc+KC, jc:jc+NC] into NR-wide strips
//	    for ic over rows in MC blocks       (A block → L2)
//	      pack A[ic:ic+MC, pc:pc+KC] into MR-tall panels
//	      for each NR strip × MR panel: micro-kernel
//
// The micro-kernel holds an MR×NR tile of C in registers (YMM on amd64
// with AVX2, locals elsewhere) and streams the packed panels, so C traffic
// drops from one load+store per multiply (the naive kernels) to one
// load+store per KC depth steps, and operands arrive from cache-resident,
// unit-stride buffers.
//
// Determinism contract. Every output element accumulates its k terms in
// strictly ascending order: the pc loop walks depth panels in order, the
// micro-kernel initializes its accumulators from C (zero for the first
// panel) and adds one a·b term per depth step, and vector lanes map to
// distinct output columns — a lane-wise mul-then-add is the same IEEE
// operation sequence as the scalar loop. The engine therefore produces
// bit-identical results to the retained naive reference kernels
// (MatMul*Rows) on finite inputs at every worker count and block size;
// gemm_test.go asserts it across adversarial shapes. FMA is deliberately
// not used — fusing would change the rounding of every product.
//
// Zero/NaN/Inf semantics. Unlike the pre-engine kernels, no term is ever
// skipped: a zero in one operand contributes an exact ±0·x term, so NaN
// and Inf from the other operand propagate per IEEE 754 (0·Inf = NaN),
// and results match the mathematical sum term for term. On finite inputs
// the old zero-skip produced the same bits (adding ±0 to a non-negative-
// zero partial sum is the identity, and a partial sum that starts at +0
// can never become −0), so this strictly extends — never changes — the
// finite-input behavior. On non-finite inputs the same elements become
// NaN/±Inf on every path, but NaN *payloads* are unspecified (IEEE 754
// leaves payload propagation to the implementation, and the compiled
// scalar kernels and the assembly kernel may select different source
// NaNs) — the bit-identity contract is for finite data.

import (
	"repro/internal/arena"
	"repro/internal/parallel"
)

// Register/cache blocking parameters. MR×NR is the register tile; the
// amd64 micro-kernel keeps the 4×8 C tile in eight YMM accumulators.
// KC×NR B strips (16 KiB) and KC×MR A panels (8 KiB) stay L1-resident;
// MC×KC A blocks (128 KiB) target L2; KC×NC B panels (1 MiB) the LLC.
const (
	gemmMR = 4
	gemmNR = 8
	gemmMC = 64
	gemmKC = 256
	gemmNC = 512
)

// gemmMinWork is the product count (n·k·m) below which the packing and
// dispatch overhead of the blocked engine outweighs its cache wins; such
// calls run on the naive reference kernels (bit-identical either way).
const gemmMinWork = 1 << 13

// gemmVariant selects how the logical A and B operands map onto the
// stored tensors: C[n,m] = A[n,k]·B[k,m] with A or B stored transposed.
type gemmVariant uint8

const (
	gemmNN gemmVariant = iota // a [n,k],  b [k,m]
	gemmTA                    // a [k,n]:  A = aᵀ
	gemmTB                    // b [m,k]:  B = bᵀ
)

// gemmPack pools the A/B pack buffers across calls and goroutines, so
// warm steady-state steps stage panels without touching the heap.
var gemmPack = arena.New()

// gemmOp is one product C[n,m] = A·B as the engine sees it: the variant
// and the raw row-major operand slices. The engine reads nothing else of
// a tensor, and working on slices means a forked closure captures only
// the data — never a caller's *Tensor header or shape array — so callers
// may hand it stack-built views (the convolution's chunk matrices) and
// stay at 0 allocs on the serial path.
type gemmOp struct {
	v       gemmVariant
	c, a, b []float64
	n, k, m int

	// minFork is the least work (n·k·m) the product must carry before it
	// forks the pool; 0 leaves the decision to parallel.Worth alone.
	minFork int
}

// fork reports whether a product of the given work shards over the pool.
func (g gemmOp) fork(work int) bool {
	return work >= g.minFork && parallel.Worth(float64(work))
}

// lda and ldb are the stored operands' row strides.
func (g gemmOp) lda() int {
	if g.v == gemmTA {
		return g.n
	}
	return g.k
}

func (g gemmOp) ldb() int {
	if g.v == gemmTB {
		return g.k
	}
	return g.m
}

// gemmInto computes the [n,m] product of tensor operands into c.
func gemmInto(v gemmVariant, c, a, b *Tensor, n, k, m int) {
	gemmOp{v: v, c: c.Data, a: a.Data, b: b.Data, n: n, k: k, m: m}.run()
}

// run computes the product, choosing between the naive reference kernels
// (tiny or degenerate shapes), a serial blocked run, and a 2-D tiled
// parallel blocked run. All three produce bit-identical results, so the
// dispatch — and the worker count — never changes the output bits.
func (g gemmOp) run() {
	if g.n == 0 || g.m == 0 {
		return
	}
	work := g.n * g.k * g.m
	// Narrow outputs (m < NR) stay on the naive kernels: every strip would
	// pad to NR lanes and waste most of the micro-kernel. Short outputs
	// (n < MR) do NOT opt out — the edge micro-kernel stores only the
	// real rows, and ForTiles splits columns so even a 2-row product keeps
	// the whole pool busy.
	if g.k == 0 || g.m < gemmNR || work < gemmMinWork {
		g.naive()
		return
	}
	if !g.fork(work) {
		g.tile(0, g.n, 0, g.m)
		return
	}
	parallel.ForTiles(g.n, g.m, float64(g.k), g.tile)
}

// naive runs the retained reference kernels, sharding rows over the pool
// only when the shape is worth forking for (the serial branch calls the
// kernel directly so hot small-shape callers allocate no closure).
func (g gemmOp) naive() {
	if !g.fork(g.n * g.k * g.m) {
		g.naiveRows(0, g.n)
		return
	}
	parallel.ForCost(g.n, float64(g.k*g.m), g.naiveRows)
}

//mlperfvet:hotpath
func (g gemmOp) naiveRows(lo, hi int) {
	switch g.v {
	case gemmNN:
		matMulRows(g.c, g.a, g.b, g.k, g.m, lo, hi)
	case gemmTA:
		matMulTransARows(g.c, g.a, g.b, g.n, g.k, g.m, lo, hi)
	default:
		matMulTransBRows(g.c, g.a, g.b, g.k, g.m, lo, hi)
	}
}

// tile computes the output tile [r0, r1) × [c0, c1) of the blocked
// product. Tiles are independent — each worker of a ForTiles loop owns
// one and draws its own pack buffers — and the depth (pc) loop runs in
// ascending order inside the tile, so any tiling yields the serial bits.
//
//mlperfvet:hotpath
func (g gemmOp) tile(r0, r1, c0, c1 int) {
	v, k, ldc := g.v, g.k, g.m
	if k == 0 {
		for i := r0; i < r1; i++ {
			row := g.c[i*ldc+c0 : i*ldc+c1]
			for j := range row {
				row[j] = 0
			}
		}
		return
	}
	lda, ldb := g.lda(), g.ldb()
	// Pack buffers sized to this tile's largest panels (rounded up to
	// whole micro-tiles), so small products draw small arena classes.
	kcMax := min(gemmKC, k)
	mcMax := (min(gemmMC, r1-r0) + gemmMR - 1) / gemmMR * gemmMR
	ncMax := (min(gemmNC, c1-c0) + gemmNR - 1) / gemmNR * gemmNR
	abuf := gemmPack.GetRaw(mcMax * kcMax)
	bbuf := gemmPack.GetRaw(ncMax * kcMax)
	for jc := c0; jc < c1; jc += gemmNC {
		nc := min(gemmNC, c1-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			if v == gemmTB {
				packBTrans(bbuf, g.b, ldb, pc, kc, jc, nc)
			} else {
				packBNormal(bbuf, g.b, ldb, pc, kc, jc, nc)
			}
			first := pc == 0
			for ic := r0; ic < r1; ic += gemmMC {
				mc := min(gemmMC, r1-ic)
				if v == gemmTA {
					packATrans(abuf, g.a, lda, ic, mc, pc, kc)
				} else {
					packANormal(abuf, g.a, lda, ic, mc, pc, kc)
				}
				for s := 0; s*gemmNR < nc; s++ {
					nr := min(gemmNR, nc-s*gemmNR)
					bp := bbuf[s*gemmNR*kc:]
					for t := 0; t*gemmMR < mc; t++ {
						mr := min(gemmMR, mc-t*gemmMR)
						ap := abuf[t*gemmMR*kc:]
						co := (ic+t*gemmMR)*ldc + jc + s*gemmNR
						if mr == gemmMR && nr == gemmNR {
							if gemmUseAsm {
								microKernel4x8AVX2(&g.c[co], ldc, &ap[0], &bp[0], kc, first)
							} else {
								microKernel4x8(g.c, co, ldc, ap, bp, kc, first)
							}
						} else {
							microKernelEdge(g.c, co, ldc, ap, bp, kc, mr, nr, first)
						}
					}
				}
			}
		}
	}
	gemmPack.Put(bbuf)
	gemmPack.Put(abuf)
}

// packANormal stages rows [i0, i0+mc) × depth [p0, p0+kc) of a row-major
// [·, lda] A operand into MR-tall panels: panel t holds rows i0+t·MR …,
// laid out depth-major ([kc][MR]) so the micro-kernel reads MR operands
// per depth step from one unit-stride stream. Rows past mc pad with
// zeros: the padded lanes compute into accumulators that are never
// stored, so padding cannot perturb real outputs.
//
//mlperfvet:hotpath
func packANormal(dst, a []float64, lda, i0, mc, p0, kc int) {
	for t := 0; t*gemmMR < mc; t++ {
		rows := min(gemmMR, mc-t*gemmMR)
		base := t * gemmMR * kc
		r0 := (i0 + t*gemmMR) * lda
		for p := 0; p < kc; p++ {
			d := dst[base+p*gemmMR : base+p*gemmMR+gemmMR : base+p*gemmMR+gemmMR]
			src := r0 + p0 + p
			for r := 0; r < rows; r++ {
				d[r] = a[src+r*lda]
			}
			for r := rows; r < gemmMR; r++ {
				d[r] = 0
			}
		}
	}
}

// packATrans is packANormal for A = aᵀ with a stored [k, n] (lda = n):
// logical A[i, p] = a[p·lda + i], so each depth step reads MR contiguous
// elements of a row of a.
//
//mlperfvet:hotpath
func packATrans(dst, a []float64, lda, i0, mc, p0, kc int) {
	for t := 0; t*gemmMR < mc; t++ {
		rows := min(gemmMR, mc-t*gemmMR)
		base := t * gemmMR * kc
		c0 := i0 + t*gemmMR
		for p := 0; p < kc; p++ {
			d := dst[base+p*gemmMR : base+p*gemmMR+gemmMR : base+p*gemmMR+gemmMR]
			src := a[(p0+p)*lda+c0 : (p0+p)*lda+c0+rows]
			for r, v := range src {
				d[r] = v
			}
			for r := rows; r < gemmMR; r++ {
				d[r] = 0
			}
		}
	}
}

// packBNormal stages depth [p0, p0+kc) × columns [j0, j0+nc) of a
// row-major [·, ldb] B operand into NR-wide strips, depth-major
// ([kc][NR]), zero-padding columns past nc.
//
//mlperfvet:hotpath
func packBNormal(dst, b []float64, ldb, p0, kc, j0, nc int) {
	for s := 0; s*gemmNR < nc; s++ {
		w := min(gemmNR, nc-s*gemmNR)
		base := s * gemmNR * kc
		c0 := j0 + s*gemmNR
		for p := 0; p < kc; p++ {
			d := dst[base+p*gemmNR : base+p*gemmNR+gemmNR : base+p*gemmNR+gemmNR]
			src := b[(p0+p)*ldb+c0 : (p0+p)*ldb+c0+w]
			for q, v := range src {
				d[q] = v
			}
			for q := w; q < gemmNR; q++ {
				d[q] = 0
			}
		}
	}
}

// packBTrans is packBNormal for B = bᵀ with b stored [m, k] (ldb = k):
// logical B[p, j] = b[j·ldb + p]. Columns iterate outermost so each
// source row of b is read once, contiguously.
//
//mlperfvet:hotpath
func packBTrans(dst, b []float64, ldb, p0, kc, j0, nc int) {
	for s := 0; s*gemmNR < nc; s++ {
		w := min(gemmNR, nc-s*gemmNR)
		base := s * gemmNR * kc
		for q := 0; q < gemmNR; q++ {
			if q >= w {
				for p := 0; p < kc; p++ {
					dst[base+p*gemmNR+q] = 0
				}
				continue
			}
			src := b[(j0+s*gemmNR+q)*ldb+p0 : (j0+s*gemmNR+q)*ldb+p0+kc]
			for p, v := range src {
				dst[base+p*gemmNR+q] = v
			}
		}
	}
}

// microKernel4x8 is the portable register-tiled micro-kernel: a full
// MR×NR = 4×8 tile of C accumulated over kc packed depth steps. The 32
// accumulators live in locals; each depth step adds exactly one mul-then-
// add term per element, in ascending depth order — the serial bits. The
// amd64 build replaces it with the AVX2 assembly kernel (gemm_amd64.s),
// which performs the same lane-wise IEEE operations.
//
//mlperfvet:hotpath
func microKernel4x8(cd []float64, co, ldc int, ap, bp []float64, kc int, first bool) {
	var c00, c01, c02, c03, c04, c05, c06, c07 float64
	var c10, c11, c12, c13, c14, c15, c16, c17 float64
	var c20, c21, c22, c23, c24, c25, c26, c27 float64
	var c30, c31, c32, c33, c34, c35, c36, c37 float64
	if !first {
		r := cd[co : co+gemmNR : co+gemmNR]
		c00, c01, c02, c03, c04, c05, c06, c07 = r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
		r = cd[co+ldc : co+ldc+gemmNR : co+ldc+gemmNR]
		c10, c11, c12, c13, c14, c15, c16, c17 = r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
		r = cd[co+2*ldc : co+2*ldc+gemmNR : co+2*ldc+gemmNR]
		c20, c21, c22, c23, c24, c25, c26, c27 = r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
		r = cd[co+3*ldc : co+3*ldc+gemmNR : co+3*ldc+gemmNR]
		c30, c31, c32, c33, c34, c35, c36, c37 = r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
	}
	ap = ap[: gemmMR*kc : gemmMR*kc]
	bp = bp[: gemmNR*kc : gemmNR*kc]
	for p := 0; p < kc; p++ {
		a := ap[p*gemmMR : p*gemmMR+gemmMR : p*gemmMR+gemmMR]
		b := bp[p*gemmNR : p*gemmNR+gemmNR : p*gemmNR+gemmNR]
		b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
		av := a[0]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		c04 += av * b4
		c05 += av * b5
		c06 += av * b6
		c07 += av * b7
		av = a[1]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		c14 += av * b4
		c15 += av * b5
		c16 += av * b6
		c17 += av * b7
		av = a[2]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		c24 += av * b4
		c25 += av * b5
		c26 += av * b6
		c27 += av * b7
		av = a[3]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
		c34 += av * b4
		c35 += av * b5
		c36 += av * b6
		c37 += av * b7
	}
	r := cd[co : co+gemmNR : co+gemmNR]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = c00, c01, c02, c03, c04, c05, c06, c07
	r = cd[co+ldc : co+ldc+gemmNR : co+ldc+gemmNR]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = c10, c11, c12, c13, c14, c15, c16, c17
	r = cd[co+2*ldc : co+2*ldc+gemmNR : co+2*ldc+gemmNR]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = c20, c21, c22, c23, c24, c25, c26, c27
	r = cd[co+3*ldc : co+3*ldc+gemmNR : co+3*ldc+gemmNR]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = c30, c31, c32, c33, c34, c35, c36, c37
}

// microKernelEdge handles partial tiles at the right/bottom block edges:
// it stages the real mr×nr elements in a full MR×NR tile on the stack
// (padding lanes zero), runs the full micro-kernel on it — the packed
// panels are zero-padded to whole micro-tiles, so the padding lanes only
// accumulate zeros — and stores back the real elements. Each real lane
// sees the same ascending-depth operation sequence as in a full tile, so
// edge tiles match the serial bits too.
//
//mlperfvet:hotpath
func microKernelEdge(cd []float64, co, ldc int, ap, bp []float64, kc, mr, nr int, first bool) {
	var acc [gemmMR * gemmNR]float64
	if !first {
		for r := 0; r < mr; r++ {
			copy(acc[r*gemmNR:r*gemmNR+nr], cd[co+r*ldc:co+r*ldc+nr])
		}
	}
	if gemmUseAsm {
		microKernel4x8AVX2(&acc[0], gemmNR, &ap[0], &bp[0], kc, first)
	} else {
		microKernel4x8(acc[:], 0, gemmNR, ap, bp, kc, first)
	}
	for r := 0; r < mr; r++ {
		copy(cd[co+r*ldc:co+r*ldc+nr], acc[r*gemmNR:r*gemmNR+nr])
	}
}
