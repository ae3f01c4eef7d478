package core

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/precision"
	"repro/internal/transport"
)

// dpBenchmark is Configure's data-parallel path: a copy of the suite
// benchmark whose New constructor builds a real data-parallel training run
// on the internal/dist engine. workers replicas train on shards of every
// global minibatch and exchange gradients through a deterministic ring
// all-reduce. The wrapped workload implements models.Workload, so
// Run/RunSet apply the §3.2.1 timing rules and emit compliant MLLOG
// streams exactly as for serial runs.
//
// microshards pins the gradient-reduction granularity (0 selects 8 when
// workers divides 8, else workers). Runs that share seed, global batch, and
// microshards produce bit-identical parameters at every worker count
// dividing microshards — the dist determinism contract. The numerics live
// in the engine config, not the model hyperparameters, because the engine
// owns the tapes and the step bracket in data-parallel training.
func dpBenchmark(v Version, id string, workers, microshards int, num precision.Numerics) (Benchmark, error) {
	b, err := FindBenchmark(v, id)
	if err != nil {
		return Benchmark{}, err
	}
	if workers < 1 {
		return Benchmark{}, fmt.Errorf("core: data-parallel worker count %d < 1", workers)
	}
	if microshards <= 0 {
		microshards = workers
		if 8%workers == 0 {
			microshards = 8
		}
	}
	// Surface config errors here, on the clean error path, rather than as a
	// run-time panic from dist.New inside b.New.
	if microshards%workers != 0 {
		return Benchmark{}, fmt.Errorf("core: microshards %d must be a multiple of the data-parallel worker count %d", microshards, workers)
	}

	// One arena for all of this benchmark's runs: each run's engine draws
	// its gradient/aggregate/ring buffers from the shared pool and Close
	// (called by core.Run at run end) returns them, so a run set recycles
	// buffers across runs instead of growing the heap. The arena is
	// goroutine-safe, so concurrent run sets can share it too.
	pool := arena.New()

	switch id {
	case "recommendation":
		ds := recDSOnce()
		b.New = func(seed uint64) models.Workload {
			hp := models.DefaultNCFHParams()
			var reps []*models.Recommendation
			eng, err := dist.New(dist.Config{
				Endpoint:    transport.Endpoint{Workers: workers},
				Microshards: microshards,
				GlobalBatch: hp.Batch, DatasetN: len(ds.Train), Seed: seed, Arena: pool,
				Numerics: num,
			}, func(worker int) dist.Replica {
				m := models.NewRecommendation(ds, hp, seed)
				reps = append(reps, m)
				return dist.Replica{Model: m, Opt: m.Opt}
			})
			if err != nil {
				panic(err)
			}
			return dist.NewWorkload(id, eng, func() float64 { return reps[0].Evaluate() })
		}
	case "image_classification":
		ds := imgDSOnce()
		b.New = func(seed uint64) models.Workload {
			hp := imageHParams(v)
			var reps []*models.ImageClassification
			eng, err := dist.New(dist.Config{
				Endpoint:    transport.Endpoint{Workers: workers},
				Microshards: microshards,
				GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN, Seed: seed, Arena: pool,
				Numerics: num,
			}, func(worker int) dist.Replica {
				m := models.NewImageClassification(ds, hp, seed)
				reps = append(reps, m)
				return dist.Replica{Model: m, Opt: m.Opt}
			})
			if err != nil {
				panic(err)
			}
			// The reference LR schedule is built per replica; all replicas
			// share the same step count, so replica 0's drives the engine.
			// Note: trainable parameters are bit-identical at every worker
			// count, but BatchNorm running statistics (eval-time buffers)
			// accumulate per replica from its own microshards — as in real
			// DDP without synchronized BN — so measured quality and
			// epochs-to-target can differ slightly across worker counts.
			eng.SetSchedule(reps[0].Sched)
			return dist.NewWorkload(id, eng, func() float64 { return reps[0].Evaluate() })
		}
	default:
		return Benchmark{}, fmt.Errorf("core: benchmark %q does not support data-parallel training (supported: image_classification, recommendation)", id)
	}

	b.Model += fmt.Sprintf(" [data-parallel ×%d]", workers)
	if num.Compute != 0 || num.Mixed {
		b.Model += fmt.Sprintf(" [numerics %s]", NumericsTag(num))
	}
	return b, nil
}

// Compile-time check: the dist workload wrapper satisfies the harness
// contract (including the step counter used for cost accounting).
var (
	_ models.Workload    = (*dist.Workload)(nil)
	_ models.StepCounter = (*dist.Workload)(nil)
)
