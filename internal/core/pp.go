package core

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// ppBenchmark is Configure's pipeline-parallel path: a copy of the suite
// benchmark whose New constructor builds a pipeline-parallel (and, with
// workers > 1, hybrid DP×PP) training run on the internal/pipeline engine.
// The model is split into `stages` cost-balanced contiguous stages, each
// replicated `workers` ways, and every global minibatch flows through the
// stage goroutines as `microbatches` microbatches under the chosen
// schedule ("gpipe" or "1f1b"; empty selects gpipe). The stage tapes run
// the given compute dtype; the full mixed-precision recipe is a
// whole-model step bracket and does not decompose across stage shards, so
// Configure rejects it before reaching here.
//
// Runs sharing seed, global batch, and microbatches produce bit-identical
// trainable parameters for every (stages, schedule, workers) combination —
// the engine's determinism contract. (As on the data-parallel path,
// BatchNorm running statistics accumulate per replica from its own
// microbatches, so measured quality can differ slightly across worker
// counts.)
func ppBenchmark(v Version, id string, stages, workers, microbatches int, schedule string, dtype tensor.DType) (Benchmark, error) {
	b, err := FindBenchmark(v, id)
	if err != nil {
		return Benchmark{}, err
	}
	if stages < 1 {
		return Benchmark{}, fmt.Errorf("core: pipeline stage count %d < 1", stages)
	}
	if workers < 1 {
		return Benchmark{}, fmt.Errorf("core: pipeline worker count %d < 1", workers)
	}
	if microbatches < 0 || (microbatches > 0 && microbatches%workers != 0) {
		return Benchmark{}, fmt.Errorf("core: microbatches %d must be a positive multiple of the worker count %d (or 0 for auto)", microbatches, workers)
	}
	sched := pipeline.Schedule(schedule)
	switch sched {
	case "", pipeline.GPipe, pipeline.OneFOneB:
	default:
		return Benchmark{}, fmt.Errorf("core: unknown pipeline schedule %q (want %q or %q)", schedule, pipeline.GPipe, pipeline.OneFOneB)
	}

	// One arena for all of this benchmark's runs (see dpBenchmark).
	pool := arena.New()

	switch id {
	case "image_classification":
		ds := imgDSOnce()
		b.New = func(seed uint64) models.Workload {
			hp := imageHParams(v)
			var reps []*models.ImageClassification
			eng, err := pipeline.New(pipeline.Config{
				Endpoint: transport.Endpoint{Workers: workers},
				Stages:   stages, Microbatches: microbatches,
				Schedule: sched, GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN,
				Seed: seed, Arena: pool, DType: dtype,
			}, func(worker int) []pipeline.StageReplica {
				m := models.NewImageClassification(ds, hp, seed)
				reps = append(reps, m)
				parts, err := m.PipelineStages(stages)
				if err != nil {
					panic(err)
				}
				return pipeline.Wrap(parts)
			})
			if err != nil {
				panic(err)
			}
			eng.SetLRSchedule(reps[0].Sched)
			return pipeline.NewWorkload(id, eng, func() float64 { return reps[0].Evaluate() })
		}
	case "translation_transformer":
		ds := mtDSOnce()
		b.New = func(seed uint64) models.Workload {
			hp := models.DefaultTransformerHParams()
			var reps []*models.Translation
			eng, err := pipeline.New(pipeline.Config{
				Endpoint: transport.Endpoint{Workers: workers},
				Stages:   stages, Microbatches: microbatches,
				Schedule: sched, GlobalBatch: hp.Batch, DatasetN: len(ds.Train),
				Seed: seed, Arena: pool, DType: dtype,
			}, func(worker int) []pipeline.StageReplica {
				m := models.NewTranslation(ds, hp, seed)
				reps = append(reps, m)
				parts, err := m.PipelineStages(stages)
				if err != nil {
					panic(err)
				}
				return pipeline.Wrap(parts)
			})
			if err != nil {
				panic(err)
			}
			eng.SetLRSchedule(reps[0].Sched)
			return pipeline.NewWorkload(id, eng, func() float64 { return reps[0].Evaluate() })
		}
	default:
		return Benchmark{}, fmt.Errorf("core: benchmark %q does not support pipeline-parallel training (supported: image_classification, translation_transformer)", id)
	}

	if workers > 1 {
		b.Model += fmt.Sprintf(" [hybrid DP×%d PP×%d]", workers, stages)
	} else {
		b.Model += fmt.Sprintf(" [pipeline ×%d]", stages)
	}
	if dtype != tensor.Float64 {
		b.Model += fmt.Sprintf(" [numerics %s]", dtype)
	}
	return b, nil
}

// Compile-time check: the pipeline workload wrapper satisfies the harness
// contract (including the step counter used for cost accounting).
var (
	_ models.Workload    = (*pipeline.Workload)(nil)
	_ models.StepCounter = (*pipeline.Workload)(nil)
)
