package repro

import (
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// Steady-state allocation benchmarks: after a short warmup, a training
// step must perform ZERO heap allocations — the tensor arena, the pooled
// autograd tape, the persistent engine workers, and the reused batch buffers
// together keep GC entirely out of the hot loop, so step time stays flat
// no matter how long training runs (the time-to-train property §3.2
// measures). CI's bench-smoke job greps these benchmarks' -benchmem output
// and fails on any nonzero allocs/op.
//
// The kernel pool is pinned to 1 worker: parallelism comes from the
// persistent data-parallel workers (which allocate nothing per step), while
// a forked kernel loop would pay one goroutine spawn per fork. DropLast
// keeps every global batch full-size so warm tape slots never resize.

const stepAllocsWarmup = 6

func benchStepAllocsNCF(b *testing.B, workers int) {
	withPoolWorkers(b, 1)
	ds := datasets.GenerateRec(datasets.DefaultRecConfig())
	hp := models.DefaultNCFHParams()
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers},
		Stages:   1, Microbatches: 8,
		GlobalBatch: 256, DatasetN: len(ds.Train), Seed: 1, DropLast: true,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewRecommendation(ds, hp, 1)
		return pipeline.OneStage(m, m.Opt)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close) // not deferred: the timer only stops after this function returns, and Close's arena Puts would be timed
	for i := 0; i < stepAllocsWarmup; i++ {
		eng.StepNext()
	}
	// Setup allocated megabytes (dataset, replicas); collect that debris
	// now so a GC cycle's own bookkeeping cannot land inside the timed
	// region. Once warm the loop allocates nothing, so no further GC can
	// trigger — that is the property under test.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

func benchStepAllocsResNet(b *testing.B, workers int) {
	withPoolWorkers(b, 1)
	ds := datasets.GenerateImages(datasets.DefaultImageConfig())
	hp := models.DefaultImageHParams()
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers},
		Stages:   1, Microbatches: 8,
		GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN, Seed: 1, DropLast: true,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewImageClassification(ds, hp, 1)
		return pipeline.OneStage(m, m.Opt)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close) // not deferred: the timer only stops after this function returns, and Close's arena Puts would be timed
	for i := 0; i < stepAllocsWarmup; i++ {
		eng.StepNext()
	}
	runtime.GC() // see benchStepAllocsNCF
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

func BenchmarkStepAllocsNCF(b *testing.B)       { benchStepAllocsNCF(b, 1) }
func BenchmarkStepAllocsNCFDP4(b *testing.B)    { benchStepAllocsNCF(b, 4) }
func BenchmarkStepAllocsResNet(b *testing.B)    { benchStepAllocsResNet(b, 1) }
func BenchmarkStepAllocsResNetDP4(b *testing.B) { benchStepAllocsResNet(b, 4) }

// benchStepPipeline drives the engine split into pipeline stages through
// warm ResNet steps. Like the one-stage benchmarks above, the warm step
// must report 0 allocs/op — the pooled tapes, boundary-transfer cells, and
// stage-group rings keep GC out of the pipelined hot loop too.
// CI's bench-smoke job greps BenchmarkStepPipeline* alongside
// BenchmarkStepAllocs*.
func benchStepPipeline(b *testing.B, stages, workers int, sched pipeline.Schedule) {
	withPoolWorkers(b, 1)
	ds := datasets.GenerateImages(datasets.DefaultImageConfig())
	hp := models.DefaultImageHParams()
	var reps []*models.ImageClassification
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers},
		Stages:   stages, Microbatches: 4, Schedule: sched,
		GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN, Seed: 1, DropLast: true,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewImageClassification(ds, hp, 1)
		reps = append(reps, m)
		parts, err := m.PipelineStages(stages)
		if err != nil {
			b.Fatal(err)
		}
		return pipeline.Wrap(parts)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close) // not deferred: see benchStepAllocsNCF
	eng.SetLRSchedule(reps[0].Sched)
	for i := 0; i < stepAllocsWarmup; i++ {
		eng.StepNext()
	}
	runtime.GC() // see benchStepAllocsNCF
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

func BenchmarkStepPipelineResNetPP4(b *testing.B) { benchStepPipeline(b, 4, 1, pipeline.GPipe) }
func BenchmarkStepPipelineResNetPP41F1B(b *testing.B) {
	benchStepPipeline(b, 4, 1, pipeline.OneFOneB)
}
func BenchmarkStepPipelineResNetHybrid2x2(b *testing.B) {
	benchStepPipeline(b, 2, 2, pipeline.OneFOneB)
}
