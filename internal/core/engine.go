package core

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/transport"
)

// engineBenchmark is Configure's parallel path: a copy of the suite
// benchmark whose New constructor builds a training run on the
// internal/pipeline engine. The model is split into p.PPStages
// cost-balanced contiguous stages (or trained whole, as the engine's one
// stage, when PPStages is 0 or 1), each replicated p.DP ways, and every
// global minibatch flows through the stage runtimes as p.Microbatches
// microbatches under p.PPSchedule. Pure data parallelism (no PPStages) is
// the one-stage shape; its replicas train on shards of every global
// minibatch and exchange gradients through a deterministic ring
// all-reduce. The wrapped workload implements models.Workload, so
// Run/RunSet apply the §3.2.1 timing rules and emit compliant MLLOG
// streams exactly as for serial runs.
//
// Runs sharing seed, global batch, and microbatches produce bit-identical
// trainable parameters for every (stages, schedule, workers) combination —
// the engine's determinism contract. Without PPStages, Microbatches 0
// selects 8 when DP divides 8, else DP. BatchNorm running statistics
// accumulate per replica from its own microbatches (as in real DDP without
// synchronized BN), so measured quality can differ slightly across worker
// counts. The numerics live in the engine config, not the model
// hyperparameters, because the engine owns the tapes and the step bracket.
func engineBenchmark(v Version, id string, p Parallel, num precision.Numerics) (Benchmark, error) {
	b, err := FindBenchmark(v, id)
	if err != nil {
		return Benchmark{}, err
	}
	workers, stages := max(p.DP, 1), max(p.PPStages, 1)
	if p.DP < 0 {
		return Benchmark{}, fmt.Errorf("core: data-parallel worker count %d < 1", p.DP)
	}
	if p.PPStages < 0 {
		return Benchmark{}, fmt.Errorf("core: pipeline stage count %d < 1", p.PPStages)
	}
	micro := p.Microbatches
	if micro == 0 && p.PPStages == 0 {
		micro = workers
		if 8%workers == 0 {
			micro = 8
		}
	}
	// Surface config errors here, on the clean error path, rather than as a
	// run-time panic from pipeline.New inside b.New.
	if micro < 0 || micro%workers != 0 {
		return Benchmark{}, fmt.Errorf("core: microbatches %d must be a positive multiple of the worker count %d (or 0 for auto)", micro, workers)
	}
	sched := pipeline.Schedule(p.PPSchedule)
	switch sched {
	case "", pipeline.GPipe, pipeline.OneFOneB:
	default:
		return Benchmark{}, fmt.Errorf("core: unknown pipeline schedule %q (want %q or %q)", p.PPSchedule, pipeline.GPipe, pipeline.OneFOneB)
	}

	// replica is what model builds for each worker: the evaluator, the LR
	// schedule (nil for none), and the stage list for the engine.
	type replica struct {
		eval   func() float64
		sched  opt.Schedule
		stages []pipeline.StageReplica
	}
	var (
		model        func(seed uint64) (replica, error)
		batch, dataN int
	)
	switch id {
	case "recommendation":
		if stages > 1 {
			return Benchmark{}, fmt.Errorf("core: benchmark %q has no pipeline partitioner (supported: image_classification, translation_transformer)", id)
		}
		ds, hp := recDSOnce(), models.DefaultNCFHParams()
		batch, dataN = hp.Batch, len(ds.Train)
		model = func(seed uint64) (replica, error) {
			m := models.NewRecommendation(ds, hp, seed)
			return replica{m.Evaluate, nil, pipeline.OneStage(m, m.Opt)}, nil
		}
	case "image_classification":
		ds, hp := imgDSOnce(), imageHParams(v)
		batch, dataN = hp.Batch, ds.Cfg.TrainN
		model = func(seed uint64) (replica, error) {
			m := models.NewImageClassification(ds, hp, seed)
			reps, err := pipeline.Split(stages, m, m.Opt, m.PipelineStages)
			return replica{m.Evaluate, m.Sched, reps}, err
		}
	case "translation_transformer":
		if p.PPStages == 0 {
			return Benchmark{}, fmt.Errorf("core: benchmark %q trains in parallel only with pipeline stages (set PPStages)", id)
		}
		ds, hp := mtDSOnce(), models.DefaultTransformerHParams()
		batch, dataN = hp.Batch, len(ds.Train)
		model = func(seed uint64) (replica, error) {
			m := models.NewTranslation(ds, hp, seed)
			reps, err := pipeline.Split(stages, m, m.Opt, m.PipelineStages)
			return replica{m.Evaluate, m.Sched, reps}, err
		}
	default:
		return Benchmark{}, fmt.Errorf("core: benchmark %q does not support parallel training (supported: image_classification, recommendation, translation_transformer)", id)
	}

	// One arena for all of this benchmark's runs: each run's engine draws
	// its gradient/aggregate/ring buffers and tape working sets from the
	// shared pool and Close (called by core.Run at run end) returns them,
	// so a run set recycles buffers across runs instead of growing the
	// heap. The arena is goroutine-safe, so concurrent run sets can share
	// it too.
	pool := arena.New()
	b.New = func(seed uint64) models.Workload {
		var reps []replica
		eng, err := pipeline.New(pipeline.Config{
			Endpoint: transport.Endpoint{Workers: workers},
			Stages:   stages, Microbatches: micro, Schedule: sched,
			GlobalBatch: batch, DatasetN: dataN, Seed: seed, Arena: pool,
			Numerics: num,
		}, func(worker int) []pipeline.StageReplica {
			r, err := model(seed)
			if err != nil {
				panic(err)
			}
			reps = append(reps, r)
			return r.stages
		})
		if err != nil {
			panic(err)
		}
		// The reference LR schedule is built per replica; all replicas
		// share the same step count, so replica 0's drives the engine.
		eng.SetLRSchedule(reps[0].sched)
		return pipeline.NewWorkload(id, eng, reps[0].eval)
	}

	switch {
	case p.PPStages == 0:
		b.Model += fmt.Sprintf(" [data-parallel ×%d]", workers)
	case workers > 1:
		b.Model += fmt.Sprintf(" [hybrid DP×%d PP×%d]", workers, stages)
	default:
		b.Model += fmt.Sprintf(" [pipeline ×%d]", stages)
	}
	if num.Compute != 0 || num.Mixed {
		b.Model += fmt.Sprintf(" [numerics %s]", NumericsTag(num))
	}
	return b, nil
}

// Compile-time check: the engine workload wrapper satisfies the harness
// contract (including the step counter used for cost accounting).
var (
	_ models.Workload    = (*pipeline.Workload)(nil)
	_ models.StepCounter = (*pipeline.Workload)(nil)
)
