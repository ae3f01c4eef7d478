// Package parallel is the shared worker-pool substrate for the compute
// kernels and the run-set executor. It shards index ranges over a bounded
// number of goroutines (sized by GOMAXPROCS unless overridden), the software
// analogue of the data-parallel accelerator pools MLPerf entries run on.
//
// Determinism contract: For/ForCost split [0,n) into contiguous shards and
// every index is processed by exactly one shard, so a body that writes only
// to outputs owned by its indices — and accumulates each output element in
// the same order as the serial loop — produces bit-identical results at
// every worker count. All kernels in internal/tensor and the executor in
// internal/core are written against this contract.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minParallelCost is the approximate floating-point-op count below which
// forking goroutines costs more than it saves; ForCost runs such loops
// inline on the calling goroutine.
const minParallelCost = 1 << 15

// Pool bounds the degree of parallelism for sharded loops. Pools are
// fork-join: For spawns at most Workers goroutines per call and waits for
// them, so nested and concurrent calls are safe (inner calls simply add
// goroutines; the scheduler multiplexes them over the same cores).
type Pool struct {
	workers atomic.Int32
}

// NewPool returns a pool running at most workers goroutines per loop.
// workers <= 0 selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	p := &Pool{}
	p.SetWorkers(workers)
	return p
}

// SetWorkers resizes the pool; n <= 0 selects GOMAXPROCS. 1 forces every
// loop to run serially on the calling goroutine.
func (p *Pool) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p.workers.Store(int32(n))
}

// Workers returns the pool's current degree of parallelism.
func (p *Pool) Workers() int { return int(p.workers.Load()) }

// For splits [0, n) into contiguous chunks and runs body over them on up to
// Workers goroutines, returning when all chunks complete. body(lo, hi)
// must touch only outputs owned by indices [lo, hi). With 1 worker (or
// n <= 1) it degrades to body(0, n) inline — the serial fallback.
func (p *Pool) For(n int, body func(lo, hi int)) {
	p.forChunked(n, 1, body)
}

// ForCost is For with a per-item cost hint (roughly float ops per index):
// loops whose total cost is too small to amortize goroutine forking run
// inline. Kernels use it so tiny tensors never pay parallel overhead.
func (p *Pool) ForCost(n int, itemCost float64, body func(lo, hi int)) {
	grain := 1
	if itemCost > 0 {
		grain = int(minParallelCost / itemCost)
	}
	if grain < 1 {
		grain = 1
	}
	p.forChunked(n, grain, body)
}

// forChunked is the shared implementation: chunks of at least grain
// indices are handed to workers through an atomic cursor. The forking
// branch lives in its own function (forkRun) so its escaping
// synchronization state is only allocated when the loop actually forks —
// the inline serial path stays allocation-free, which the steady-state
// training step (kernel pool pinned to 1 worker) relies on.
func (p *Pool) forChunked(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w <= 1 || n <= grain {
		body(0, n)
		return
	}
	p.forkRun(n, grain, w, body)
}

// forkRun shards [0, n) over w goroutines through an atomic cursor.
func (p *Pool) forkRun(n, grain, w int, body func(lo, hi int)) {
	// Aim for a few chunks per worker so uneven shards load-balance, but
	// never drop below the cost-derived grain.
	if c := n / (4 * w); c > grain {
		grain = c
	}
	chunks := (n + grain - 1) / grain
	if w > chunks {
		w = chunks
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				c := int(cursor.Add(1) - 1)
				if c >= chunks {
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// Worth reports whether a loop of the given total cost (roughly float
// ops) is worth parallelizing on this pool. Callers check it before
// building a fork closure (the GEMM engine, the convolution legs), so a
// loop that runs inline allocates nothing.
func (p *Pool) Worth(totalCost float64) bool {
	return p.Workers() > 1 && totalCost >= minParallelCost
}

// ForTiles splits the 2-D index space [0, rows) × [0, cols) into
// contiguous rectangular tiles and runs body over them on up to Workers
// goroutines, returning when every tile completes. body(r0, r1, c0, c1)
// owns the output rectangle [r0, r1) × [c0, c1): every (row, col) pair is
// covered by exactly one tile, so a body that writes only to outputs it
// owns — and accumulates each output element in the serial order — keeps
// the bit-identical-at-every-worker-count contract of For/ForCost.
//
// itemCost is the approximate float-op cost of one (row, col) element
// (for a GEMM output, ~2k). Loops too small to amortize forking run
// inline, like ForCost. Unlike the 1-D loops, ForTiles keeps all workers
// busy on skinny (cols ≪ rows) and short (rows ≪ cols, e.g. the
// Transformer's short-tall projections) outputs: when one dimension has
// too few indices to go around, the other is split as well.
func (p *Pool) ForTiles(rows, cols int, itemCost float64, body func(r0, r1, c0, c1 int)) {
	if rows <= 0 || cols <= 0 {
		return
	}
	w := p.Workers()
	if w <= 1 || float64(rows)*float64(cols)*itemCost < minParallelCost {
		body(0, rows, 0, cols)
		return
	}
	// Smallest tile area (index pairs) that amortizes goroutine forking.
	minArea := 1
	if itemCost > 0 {
		if a := int(minParallelCost / itemCost); a > 1 {
			minArea = a
		}
	}
	target := 4 * w // a few tiles per worker so uneven tiles load-balance
	if maxTiles := rows * cols / minArea; target > maxTiles {
		target = maxTiles
	}
	// Prefer splitting rows — row-contiguous tiles keep the row-major
	// inner loops streaming — and split columns only when there are too
	// few rows to occupy every worker.
	rt := rows
	if rt > target {
		rt = target
	}
	ct := (target + rt - 1) / rt
	if ct > cols {
		ct = cols
	}
	if rt*ct <= 1 {
		body(0, rows, 0, cols)
		return
	}
	p.forkTiles(rows, cols, rt, ct, w, body)
}

// forkTiles runs the rt × ct tile grid over [0, rows) × [0, cols) on up
// to w goroutines through an atomic cursor (the 2-D analogue of forkRun).
func (p *Pool) forkTiles(rows, cols, rt, ct, w int, body func(r0, r1, c0, c1 int)) {
	tiles := rt * ct
	if w > tiles {
		w = tiles
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				t := int(cursor.Add(1) - 1)
				if t >= tiles {
					return
				}
				ri, ci := t/ct, t%ct
				body(ri*rows/rt, (ri+1)*rows/rt, ci*cols/ct, (ci+1)*cols/ct)
			}
		}()
	}
	wg.Wait()
}

// Do runs the given functions concurrently on up to Workers goroutines and
// waits for all of them — heterogeneous fork-join for coarse tasks.
func (p *Pool) Do(fns ...func()) {
	p.For(len(fns), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fns[i]()
		}
	})
}

// defaultPool is the process-wide pool the tensor kernels and figure
// generators draw from; cmd/mlperf's -workers flag resizes it.
var defaultPool = NewPool(0)

// Default returns the process-wide pool.
func Default() *Pool { return defaultPool }

// SetWorkers resizes the process-wide pool; n <= 0 selects GOMAXPROCS.
func SetWorkers(n int) { defaultPool.SetWorkers(n) }

// Workers returns the process-wide pool's degree of parallelism.
func Workers() int { return defaultPool.Workers() }

// For runs a sharded loop on the process-wide pool.
func For(n int, body func(lo, hi int)) { defaultPool.For(n, body) }

// ForCost runs a cost-hinted sharded loop on the process-wide pool.
func ForCost(n int, itemCost float64, body func(lo, hi int)) {
	defaultPool.ForCost(n, itemCost, body)
}

// Worth reports whether a loop of the given total cost is worth
// parallelizing on the process-wide pool.
func Worth(totalCost float64) bool { return defaultPool.Worth(totalCost) }

// ForTiles runs a 2-D tiled loop on the process-wide pool.
func ForTiles(rows, cols int, itemCost float64, body func(r0, r1, c0, c1 int)) {
	defaultPool.ForTiles(rows, cols, itemCost, body)
}
