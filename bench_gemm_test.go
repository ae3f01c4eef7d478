package repro

// GEMM engine benchmarks: the packed, blocked, register-tiled kernels
// behind MatMul/MatMulTransA/MatMulTransB versus the retained naive
// reference, at the three shape regimes the workloads exercise —
// square (ResNet im2col, NCF at production width), tall-skinny (large
// batch through a narrow hidden layer), and short-wide (the
// Transformer's short-tall attention/projection shapes). Each reports
// GFLOP/s via b.ReportMetric, so `make bench-gemm` snapshots kernel
// throughput (BENCH_gemm.json) and trajectories stay comparable across
// PRs.
//
// The kernel pool is pinned to 1 worker: these measure single-core
// kernel quality (cache blocking + packing + register tiling), not
// parallel scaling — and keep the timed region allocation-free, which
// the bench-smoke awk gate asserts for every BenchmarkGEMM*.

import (
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// benchGEMMShape times c = a·b through the public MatMulInto entry point
// (the packed engine) and reports achieved GFLOP/s.
func benchGEMMShape(b *testing.B, n, k, m int) {
	b.Helper()
	withPoolWorkers(b, 1)
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, n, k)
	y := tensor.Randn(rng, 1, k, m)
	c := tensor.New(n, m)
	tensor.MatMulInto(c, x, y) // warm the pack-buffer pool
	// Collect the setup debris (operand tensors) now so a GC cycle's own
	// bookkeeping cannot land inside the timed region; the warm loop
	// allocates nothing, so no further GC can trigger. See bench_step_test.go.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(c, x, y)
	}
	b.StopTimer()
	reportGFLOPS(b, n, k, m)
}

// benchGEMMNaiveShape times the same product through the retained naive
// row kernel (the bit-identity reference), for the before/after ratio.
func benchGEMMNaiveShape(b *testing.B, n, k, m int) {
	b.Helper()
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, n, k)
	y := tensor.Randn(rng, 1, k, m)
	c := tensor.New(n, m)
	runtime.GC() // see benchGEMMShape
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulRows(c, x, y, 0, n)
	}
	b.StopTimer()
	reportGFLOPS(b, n, k, m)
}

func reportGFLOPS(b *testing.B, n, k, m int) {
	flops := 2 * float64(n) * float64(k) * float64(m) * float64(b.N)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(flops/s/1e9, "GFLOP/s")
	}
}

// benchGEMMF32Shape times the float32 engine (the reduced-precision
// regime's compute path) through MatMulF32Into. Same blocking and
// determinism contract as the f64 engine, but the 8×8 micro-kernel moves
// twice the elements per vector — the two-regime numerics PR's headline
// throughput win.
func benchGEMMF32Shape(b *testing.B, n, k, m int) {
	b.Helper()
	withPoolWorkers(b, 1)
	rng := tensor.NewRNG(1)
	x, y := tensor.NewF32(n, k), tensor.NewF32(k, m)
	x.FromF64(tensor.Randn(rng, 1, n, k), tensor.Float32)
	y.FromF64(tensor.Randn(rng, 1, k, m), tensor.Float32)
	c := tensor.NewF32(n, m)
	tensor.MatMulF32Into(c, x, y) // warm the pack-buffer pool
	runtime.GC()                  // see benchGEMMShape
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulF32Into(c, x, y)
	}
	b.StopTimer()
	reportGFLOPS(b, n, k, m)
}

func BenchmarkGEMMSquare512(b *testing.B)       { benchGEMMShape(b, 512, 512, 512) }
func BenchmarkGEMMTallSkinny(b *testing.B)      { benchGEMMShape(b, 4096, 64, 64) }
func BenchmarkGEMMShortWide(b *testing.B)       { benchGEMMShape(b, 32, 64, 2048) }
func BenchmarkGEMMF32Square512(b *testing.B)    { benchGEMMF32Shape(b, 512, 512, 512) }
func BenchmarkGEMMF32TallSkinny(b *testing.B)   { benchGEMMF32Shape(b, 4096, 64, 64) }
func BenchmarkGEMMF32ShortWide(b *testing.B)    { benchGEMMF32Shape(b, 32, 64, 2048) }
func BenchmarkGEMMNaiveSquare512(b *testing.B)  { benchGEMMNaiveShape(b, 512, 512, 512) }
func BenchmarkGEMMNaiveTallSkinny(b *testing.B) { benchGEMMNaiveShape(b, 4096, 64, 64) }
func BenchmarkGEMMNaiveShortWide(b *testing.B)  { benchGEMMNaiveShape(b, 32, 64, 2048) }

// --- Transformer steady-state steps (serial / DP4 / PP4) ---
//
// The Transformer is the workload whose short-tall GEMM shapes the 2-D
// tile scheduler targets; these benchmarks give the README performance
// table its translation rows. The bench-smoke gate holds all three at 0
// allocs/op.

func benchStepTransformerDP(b *testing.B, workers int) {
	withPoolWorkers(b, 1)
	ds := datasets.GenerateMT(datasets.DefaultMTConfig())
	hp := models.DefaultTransformerHParams()
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers},
		Stages:   1, Microbatches: 8,
		GlobalBatch: hp.Batch, DatasetN: len(ds.Train), Seed: 1, DropLast: true,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewTranslation(ds, hp, 1)
		return pipeline.OneStage(m, m.Opt)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	for i := 0; i < stepAllocsWarmup; i++ {
		eng.StepNext()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

func BenchmarkStepTransformerSerial(b *testing.B) { benchStepTransformerDP(b, 1) }
func BenchmarkStepTransformerDP4(b *testing.B)    { benchStepTransformerDP(b, 4) }

func BenchmarkStepTransformerPP4(b *testing.B) {
	withPoolWorkers(b, 1)
	ds := datasets.GenerateMT(datasets.DefaultMTConfig())
	hp := models.DefaultTransformerHParams()
	var reps []*models.Translation
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: 1},
		Stages:   4, Microbatches: 4, Schedule: pipeline.GPipe,
		GlobalBatch: hp.Batch, DatasetN: len(ds.Train), Seed: 1, DropLast: true,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewTranslation(ds, hp, 1)
		reps = append(reps, m)
		parts, err := m.PipelineStages(4)
		if err != nil {
			b.Fatal(err)
		}
		return pipeline.Wrap(parts)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	eng.SetLRSchedule(reps[0].Sched)
	for i := 0; i < stepAllocsWarmup; i++ {
		eng.StepNext()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

// --- Transformer evaluation: batched greedy decode ---

// BenchmarkTransformerGreedyDecode times one warm batched greedy decode of
// the 128 validation sentences (Translation.Translate, the hot path of
// Evaluate) on a 1-worker pool. The model is trained two epochs first, so
// sentences stop at EOS at mixed lengths as they do in a run (tokens/op
// reports the decoded length). The bench-smoke gate holds it at 0
// allocs/op.
func BenchmarkTransformerGreedyDecode(b *testing.B) {
	withPoolWorkers(b, 1)
	ds := datasets.GenerateMT(datasets.DefaultMTConfig())
	w := models.NewTranslation(ds, models.DefaultTransformerHParams(), 1)
	for e := 0; e < 2; e++ {
		w.TrainEpoch()
	}
	srcs := make([][]int, len(ds.Val))
	for i, p := range ds.Val {
		srcs[i] = p.Src
	}
	tokens := 0
	for _, out := range w.Translate(srcs) { // allocates the decoder's buffers
		tokens += len(out)
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Translate(srcs)
	}
	b.StopTimer()
	b.ReportMetric(float64(tokens), "tokens/op")
}
