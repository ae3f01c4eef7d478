package pipeline_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/autograd"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/tensor"
	"repro/internal/transport"
)

var imgDSOnce = sync.OnceValue(func() *datasets.ImageDataset {
	return datasets.GenerateImages(datasets.DefaultImageConfig())
})

var mtDSOnce = sync.OnceValue(func() *datasets.MTDataset {
	return datasets.GenerateMT(datasets.DefaultMTConfig())
})

// newImagePipeline builds a ResNet engine: the whole model as the one
// stage at S = 1 (pure data parallelism), partitioned stages above.
func newImagePipeline(t testing.TB, stages, workers, microbatches, batch int, sched pipeline.Schedule, seed uint64) (*pipeline.Engine, []*models.ImageClassification) {
	t.Helper()
	ds := imgDSOnce()
	hp := models.DefaultImageHParams()
	var reps []*models.ImageClassification
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers},
		Stages:   stages, Microbatches: microbatches,
		Schedule: sched, GlobalBatch: batch, DatasetN: ds.Cfg.TrainN, Seed: seed,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewImageClassification(ds, hp, seed)
		reps = append(reps, m)
		parts, err := pipeline.Split(stages, m, m.Opt, m.PipelineStages)
		if err != nil {
			t.Fatal(err)
		}
		return parts
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetLRSchedule(reps[0].Sched)
	return eng, reps
}

// serialLoop is the oracle every engine shape must reproduce: a
// hand-written serial microbatch loop over one whole model, sharing only
// the engine's loader and per-(step, microbatch) RNG derivations. Per step
// it draws the next global batch; per microbatch it zeroes the gradients,
// records MicrobatchLoss on a fresh tape, runs Backward, and flattens the
// gradient scaled by the microbatch's share of the batch into that
// microbatch's row. It then sums the rows from +0 in ascending order,
// scatters the sum into the gradients, applies the LR schedule, and steps
// the optimizer. It returns each step's loss (the ascending sum of the
// weighted microbatch losses) and the final parameters by name.
func serialLoop(m pipeline.Trainable, o opt.Optimizer, sched opt.Schedule, microbatches, batch, datasetN, steps int, seed uint64) ([]float64, map[string][]float64) {
	params := m.Params()
	n := autograd.FlatSize(params)
	rows := make([][]float64, microbatches)
	for j := range rows {
		rows[j] = make([]float64, n)
	}
	sum := make([]float64, n)
	loader := data.NewLoader(datasetN, batch, pipeline.LoaderRNG(seed))
	var losses []float64
	for step := 0; step < steps; step++ {
		idx, _ := loader.Next()
		invB := 1 / float64(len(idx))
		loss := 0.0
		for j, row := range rows {
			shard := data.Shard(idx, j, microbatches)
			if len(shard) == 0 {
				clear(row)
				continue
			}
			for _, p := range params {
				p.ZeroGrad()
			}
			tape := autograd.NewTape()
			l := m.MicrobatchLoss(tape, shard, pipeline.MicroshardRNG(seed, step, j))
			tape.Backward(l)
			wgt := float64(len(shard)) * invB
			autograd.FlattenGradsScaled(row, params, wgt)
			loss += l.Scalar() * wgt
		}
		clear(sum)
		for _, row := range rows {
			for i, g := range row {
				sum[i] += g
			}
		}
		autograd.ScatterGrads(sum, params)
		opt.ApplySchedule(o, sched, step)
		o.Step()
		losses = append(losses, loss)
	}
	return losses, paramsByName(params)
}

// imageSerialLoop runs serialLoop on a fresh ResNet workload.
func imageSerialLoop(microbatches, batch, datasetN, steps int, seed uint64) ([]float64, map[string][]float64) {
	m := models.NewImageClassification(imgDSOnce(), models.DefaultImageHParams(), seed)
	return serialLoop(m, m.Opt, m.Sched, microbatches, batch, datasetN, steps, seed)
}

func flatParamValues(params []*autograd.Param) []float64 {
	var out []float64
	for _, p := range params {
		out = append(out, p.Value.Data...)
	}
	return out
}

// paramsByName indexes parameter values by name: the engine's Params()
// order is stage-concatenation order, which can differ from the whole
// model's list order, so comparison matches by name.
func paramsByName(params []*autograd.Param) map[string][]float64 {
	out := make(map[string][]float64, len(params))
	for _, p := range params {
		out[p.Name] = p.Value.Data
	}
	return out
}

func requireSameParams(t *testing.T, label string, got []*autograd.Param, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params, want %d", label, len(got), len(want))
	}
	for _, p := range got {
		ref, ok := want[p.Name]
		if !ok {
			t.Fatalf("%s: unexpected param %q", label, p.Name)
		}
		for i, v := range p.Value.Data {
			if v != ref[i] {
				t.Fatalf("%s: param %q element %d = %g, serial %g (not bit-identical)", label, p.Name, i, v, ref[i])
			}
		}
	}
}

func requireSameLosses(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: step %d loss %g, serial %g", label, i, got[i], want[i])
		}
	}
}

// stepN runs n engine steps and returns their losses.
func stepN(eng *pipeline.Engine, n int) []float64 {
	var out []float64
	for s := 0; s < n; s++ {
		out = append(out, eng.StepNext())
	}
	return out
}

// The headline property: ResNet training on every engine shape — data
// parallel (S = 1), pipeline parallel, and hybrid DP×PP, under both
// schedules — is bit-identical to the serial microbatch loop at fixed
// Microbatches.
func TestPPImageBitIdenticalGrid(t *testing.T) {
	const (
		microbatches = 8
		batch        = 32
		seed         = 7
		steps        = 3
	)
	_, ref := imageSerialLoop(microbatches, batch, imgDSOnce().Cfg.TrainN, steps, seed)
	for _, stages := range []int{1, 2, 4} {
		for _, sched := range []pipeline.Schedule{pipeline.GPipe, pipeline.OneFOneB} {
			for _, workers := range []int{1, 2} {
				eng, _ := newImagePipeline(t, stages, workers, microbatches, batch, sched, seed)
				stepN(eng, steps)
				label := fmt.Sprintf("S=%d %s K=%d", stages, sched, workers)
				if !eng.InSync() {
					t.Fatalf("%s: stage replicas out of sync", label)
				}
				requireSameParams(t, label, eng.Params(), ref)
				eng.Close()
			}
		}
	}
}

// The Transformer grid: encoder-decoder staging with tied embeddings on
// stage 0, pass-through decoder embedding and attention memory across
// stage boundaries; at S = 1 the whole model's MicrobatchLoss.
func TestPPTransformerBitIdenticalGrid(t *testing.T) {
	const (
		microbatches = 4
		batch        = 16
		seed         = 5
		steps        = 2
	)
	ds := mtDSOnce()
	hp := models.DefaultTransformerHParams()
	serial := models.NewTranslation(ds, hp, seed)
	serialLosses, ref := serialLoop(serial, serial.Opt, serial.Sched, microbatches, batch, len(ds.Train), steps, seed)

	for _, stages := range []int{1, 2, 4} {
		for _, sched := range []pipeline.Schedule{pipeline.GPipe, pipeline.OneFOneB} {
			for _, workers := range []int{1, 2} {
				var reps []*models.Translation
				eng, err := pipeline.New(pipeline.Config{
					Endpoint: transport.Endpoint{Workers: workers},
					Stages:   stages, Microbatches: microbatches,
					Schedule: sched, GlobalBatch: batch, DatasetN: len(ds.Train), Seed: seed,
				}, func(worker int) []pipeline.StageReplica {
					m := models.NewTranslation(ds, hp, seed)
					reps = append(reps, m)
					parts, err := pipeline.Split(stages, m, m.Opt, m.PipelineStages)
					if err != nil {
						t.Fatal(err)
					}
					return parts
				})
				if err != nil {
					t.Fatal(err)
				}
				eng.SetLRSchedule(reps[0].Sched)
				label := fmt.Sprintf("S=%d %s K=%d", stages, sched, workers)
				requireSameLosses(t, label, stepN(eng, steps), serialLosses)
				if !eng.InSync() {
					t.Fatalf("%s: stage replicas out of sync", label)
				}
				requireSameParams(t, label, eng.Params(), ref)
				eng.Close()
			}
		}
	}
}

// Ragged configurations: a batch the microbatch count does not divide, a
// short final batch that leaves some microbatches empty, and an epoch
// boundary in the middle of the run — all must stay bit-identical to the
// serial loop, at one stage and at two.
func TestPPRaggedBatchesBitIdentical(t *testing.T) {
	const (
		microbatches = 16
		batch        = 30 // not divisible by 16; final batch of 10 leaves empties
		datasetN     = 100
		seed         = 11
		steps        = 5 // crosses the 4-step epoch boundary
	)
	ds := imgDSOnce()
	hp := models.DefaultImageHParams()
	serialLosses, ref := imageSerialLoop(microbatches, batch, datasetN, steps, seed)

	for _, stages := range []int{1, 2} {
		for _, sched := range []pipeline.Schedule{pipeline.GPipe, pipeline.OneFOneB} {
			var reps []*models.ImageClassification
			eng, err := pipeline.New(pipeline.Config{
				Endpoint: transport.Endpoint{Workers: 2},
				Stages:   stages, Microbatches: microbatches,
				Schedule: sched, GlobalBatch: batch, DatasetN: datasetN, Seed: seed,
			}, func(worker int) []pipeline.StageReplica {
				m := models.NewImageClassification(ds, hp, seed)
				reps = append(reps, m)
				parts, err := pipeline.Split(stages, m, m.Opt, m.PipelineStages)
				if err != nil {
					t.Fatal(err)
				}
				return parts
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.SetLRSchedule(reps[0].Sched)
			label := fmt.Sprintf("S=%d %s", stages, sched)
			requireSameLosses(t, label, stepN(eng, steps), serialLosses)
			requireSameParams(t, label, eng.Params(), ref)
			eng.Close()
		}
	}
}

// The loss the engine reports is the serial loop's loss stream, whatever
// the stage count, worker count and schedule.
func TestPPLossMatchesSerial(t *testing.T) {
	const (
		microbatches = 8
		batch        = 32
		seed         = 3
		steps        = 3
	)
	want, _ := imageSerialLoop(microbatches, batch, imgDSOnce().Cfg.TrainN, steps, seed)
	for _, cfg := range []struct {
		s, k  int
		sched pipeline.Schedule
	}{{1, 1, pipeline.GPipe}, {1, 2, pipeline.OneFOneB}, {4, 1, pipeline.GPipe}, {2, 2, pipeline.OneFOneB}, {4, 2, pipeline.OneFOneB}} {
		eng, _ := newImagePipeline(t, cfg.s, cfg.k, microbatches, batch, cfg.sched, seed)
		requireSameLosses(t, fmt.Sprintf("S=%d K=%d %s", cfg.s, cfg.k, cfg.sched), stepN(eng, steps), want)
		eng.Close()
	}
}

func TestPPEngineValidation(t *testing.T) {
	ds := imgDSOnce()
	hp := models.DefaultImageHParams()
	okFactory := func(worker int) []pipeline.StageReplica {
		m := models.NewImageClassification(ds, hp, 1)
		parts, err := m.PipelineStages(2)
		if err != nil {
			t.Fatal(err)
		}
		return pipeline.Wrap(parts)
	}
	cases := []struct {
		name string
		cfg  pipeline.Config
		fac  func(int) []pipeline.StageReplica
	}{
		{"zero stages", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 0, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"zero workers", pipeline.Config{Endpoint: transport.Endpoint{Workers: 0}, Stages: 2, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"zero batch", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 0, DatasetN: 100}, okFactory},
		{"zero dataset", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 8, DatasetN: 0}, okFactory},
		{"negative chunks", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1, Chunks: -1}, Stages: 2, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"microbatches not multiple", pipeline.Config{Endpoint: transport.Endpoint{Workers: 2}, Stages: 2, Microbatches: 3, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"microbatches exceed batch", pipeline.Config{Endpoint: transport.Endpoint{Workers: 2}, Stages: 2, Microbatches: 16, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"bad schedule", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, Schedule: "zigzag", GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"droplast batch over dataset", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 200, DatasetN: 100, DropLast: true}, okFactory},
		{"nil factory", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 8, DatasetN: 100}, nil},
		{"wrong stage count", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 3, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"mixed precision across stages", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 8, DatasetN: 100, Numerics: precision.NumericsFor(tensor.BFloat16)}, okFactory},
		{"mismatched replicas", pipeline.Config{Endpoint: transport.Endpoint{Workers: 2}, Stages: 2, GlobalBatch: 8, DatasetN: 100}, func(worker int) []pipeline.StageReplica {
			m := models.NewImageClassification(ds, hp, uint64(worker)) // different seeds: different init
			parts, err := m.PipelineStages(2)
			if err != nil {
				t.Fatal(err)
			}
			return pipeline.Wrap(parts)
		}},
	}
	for _, c := range cases {
		if _, err := pipeline.New(c.cfg, c.fac); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// Partitioner validation: more stages than splittable blocks must fail
// with a clear error rather than producing empty stages.
func TestPPPartitionerTooManyStages(t *testing.T) {
	ds := imgDSOnce()
	m := models.NewImageClassification(ds, models.DefaultImageHParams(), 1)
	if _, err := m.PipelineStages(64); err == nil {
		t.Fatal("expected error for more stages than blocks")
	}
	mt := models.NewTranslation(mtDSOnce(), models.DefaultTransformerHParams(), 1)
	if _, err := mt.PipelineStages(64); err == nil {
		t.Fatal("expected error for more stages than blocks")
	}
}

// Close must stop the stage goroutines, tolerate repeated calls, and be a
// no-op on the serial shape.
func TestPPCloseIdempotent(t *testing.T) {
	for _, cfg := range []struct{ s, k int }{{1, 1}, {2, 2}} {
		eng, _ := newImagePipeline(t, cfg.s, cfg.k, 4, 32, pipeline.GPipe, 1)
		eng.StepNext()
		eng.Close()
		eng.Close() // must not panic
	}
}
