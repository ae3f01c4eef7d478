package pipeline_test

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// TestPPStepAllocsZero asserts the steady-state contract for the pipeline
// path end to end: once a few warmup steps have populated the per-slot
// pooled tapes, the boundary-transfer cells, and the batch buffers, a full
// pipelined training step — microbatch schedule, activation/gradient
// channel exchange, stage-group ring all-reduce, optimizer updates, loader
// advance — performs zero heap allocations, for pure DP (one stage), pure
// PP and hybrid DP×PP, under both schedules. Params(), which digest loops
// call every step, allocates nothing either. The kernel pool is pinned to 1
// worker (see bench_step_test.go for why).
func TestPPStepAllocsZero(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	ds := imgDSOnce()
	hp := models.DefaultImageHParams()
	for _, cfg := range []struct {
		stages, workers int
		sched           pipeline.Schedule
	}{
		{1, 2, pipeline.GPipe},
		{4, 1, pipeline.GPipe},
		{4, 1, pipeline.OneFOneB},
		{2, 2, pipeline.GPipe},
		{2, 2, pipeline.OneFOneB},
	} {
		var reps []*models.ImageClassification
		eng, err := pipeline.New(pipeline.Config{
			Endpoint: transport.Endpoint{Workers: cfg.workers},
			Stages:   cfg.stages, Microbatches: 4,
			Schedule: cfg.sched, GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN,
			Seed: 1, DropLast: true,
		}, func(worker int) []pipeline.StageReplica {
			m := models.NewImageClassification(ds, hp, 1)
			reps = append(reps, m)
			parts, err := pipeline.Split(cfg.stages, m, m.Opt, m.PipelineStages)
			if err != nil {
				t.Fatal(err)
			}
			return parts
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetLRSchedule(reps[0].Sched)
		for i := 0; i < 6; i++ {
			eng.StepNext()
		}
		if n := testing.AllocsPerRun(10, func() { eng.StepNext() }); n != 0 {
			t.Errorf("S=%d K=%d %s: warm pipeline step allocates %v per step, want 0",
				cfg.stages, cfg.workers, cfg.sched, n)
		}
		if cfg.stages <= 2 {
			if n := testing.AllocsPerRun(10, func() { eng.Params() }); n != 0 {
				t.Errorf("S=%d K=%d: Params allocates %v per call, want 0", cfg.stages, cfg.workers, n)
			}
		}
		eng.Close()
	}
}

// TestOneFOneBBoundsLiveTapes checks that 1F1B's liveness bound is real:
// stage s keeps min(M/K, S−s) tapes, GPipe keeps M/K, and each tape holds
// its working set until Close. So over the same two steps on private
// arenas, 1F1B must draw fewer fresh buffers than GPipe.
func TestOneFOneBBoundsLiveTapes(t *testing.T) {
	ds := imgDSOnce()
	hp := models.DefaultImageHParams()
	misses := func(sched pipeline.Schedule) uint64 {
		pool := arena.New()
		eng, err := pipeline.New(pipeline.Config{
			Endpoint: transport.Endpoint{Workers: 1},
			Stages:   2, Microbatches: 8, Schedule: sched,
			GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN, Seed: 1, Arena: pool,
		}, func(worker int) []pipeline.StageReplica {
			m := models.NewImageClassification(ds, hp, 1)
			parts, err := m.PipelineStages(2)
			if err != nil {
				t.Fatal(err)
			}
			return pipeline.Wrap(parts)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.StepNext()
		eng.StepNext()
		return pool.Stats().Misses
	}
	gpipe, oneF := misses(pipeline.GPipe), misses(pipeline.OneFOneB)
	if oneF >= gpipe {
		t.Errorf("1F1B drew %d fresh buffers, GPipe %d: 1F1B holds as many working sets as GPipe", oneF, gpipe)
	}
}
