package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/autograd"
	"repro/internal/ckpt"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// optionalInterfaces are the abilities core.Run and this benchmark discover
// by type assertion.
var optionalInterfaces = []struct {
	name string
	has  func(models.Workload) bool
}{
	{"ckpt.Stateful", func(w models.Workload) bool { _, ok := w.(ckpt.Stateful); return ok }},
	{"Params", func(w models.Workload) bool { _, ok := w.(interface{ Params() []*autograd.Param }); return ok }},
	{"Err", func(w models.Workload) bool { _, ok := w.(interface{ Err() error }); return ok }},
	{"Close", func(w models.Workload) bool { _, ok := w.(interface{ Close() }); return ok }},
	{"Engine", func(w models.Workload) bool { _, ok := w.(interface{ Engine() *pipeline.Engine }); return ok }},
	{"Steps", func(w models.Workload) bool { _, ok := w.(models.StepCounter); return ok }},
}

func configure(t *testing.T, id string, cfg core.TrainConfig) core.Benchmark {
	t.Helper()
	b, err := core.Configure(core.V05, id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWrapExposesExactlyTheWrappedInterfaces(t *testing.T) {
	cases := []struct {
		id  string
		cfg core.TrainConfig
	}{
		{"image_classification", core.TrainConfig{}},
		{"recommendation", core.TrainConfig{}},
		{"translation_transformer", core.TrainConfig{Parallel: core.Parallel{PPStages: 2}}},
	}
	for _, c := range cases {
		inner := configure(t, c.id, c.cfg).New(1)
		w, err := wrap(inner, &epochLog{clk: clock.NewReal()})
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		for _, i := range optionalInterfaces {
			if got, want := i.has(w), i.has(inner); got != want {
				t.Errorf("%s: wrapper has %s = %v, wrapped workload %v", c.id, i.name, got, want)
			}
		}
		if cl, ok := w.(interface{ Close() }); ok {
			cl.Close()
		}
	}
}

// TestWrappedRunMatchesPlainRun checks that core.Run behaves identically on
// a wrapped workload: NCF serial checkpoints through the wrapper, ResNet
// serial (not Stateful) must not.
func TestWrappedRunMatchesPlainRun(t *testing.T) {
	cases := []struct {
		id     string
		epochs int
	}{
		{"recommendation", 3},
		{"image_classification", 1},
	}
	for _, c := range cases {
		b := configure(t, c.id, core.TrainConfig{})
		var results [2]core.RunResult
		var newest [2]*models.TrainState
		for i := range results {
			dir := filepath.Join(t.TempDir(), "ckpt")
			run := b
			var wrapErr error
			log := &epochLog{clk: clock.NewReal()}
			if i == 1 {
				run = wrapBenchmark(b, log, &wrapErr)
			}
			results[i] = core.Run(run, core.RunConfig{Seed: 7, MaxEpochs: c.epochs, CaptureParams: true,
				Checkpoint: core.CheckpointConfig{Dir: dir}})
			if wrapErr != nil {
				t.Fatal(wrapErr)
			}
			st, _, err := ckpt.Latest(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			newest[i] = st
			if i == 1 && log.trainEpochs != results[i].Epochs {
				t.Errorf("%s: wrapper saw %d epochs, run %d", c.id, log.trainEpochs, results[i].Epochs)
			}
		}
		plain, wrapped := results[0], results[1]
		if plain.Epochs != wrapped.Epochs || math.Float64bits(plain.FinalQuality) != math.Float64bits(wrapped.FinalQuality) ||
			plain.Converged != wrapped.Converged || (plain.Err == nil) != (wrapped.Err == nil) {
			t.Errorf("%s: wrapped run %v differs from plain run %v", c.id, wrapped, plain)
		}
		if plain.FinalParams == nil || wrapped.FinalParams == nil || plain.FinalParams.Digest() != wrapped.FinalParams.Digest() {
			t.Errorf("%s: final parameters differ", c.id)
		}
		if (newest[0] == nil) != (newest[1] == nil) {
			t.Fatalf("%s: plain run checkpointed %v, wrapped run %v", c.id, newest[0] != nil, newest[1] != nil)
		}
		if newest[0] != nil && newest[0].Params.Digest() != newest[1].Params.Digest() {
			t.Errorf("%s: newest checkpoints differ", c.id)
		}
	}
}

// TestTracedPassReproducesUntraced runs a short seed of every workload
// untraced and traced and requires identical epochs, quality, digests and
// predictions, and that the traced pass actually recorded its layers.
func TestTracedPassReproducesUntraced(t *testing.T) {
	for _, c := range []struct {
		name   string
		epochs int
	}{{"resnet_serial", 1}, {"transformer_pp2", 1}, {"ncf_ckpt_serve", 2}, {"ncf_dp2_tcp", 2}} {
		name := c.name
		w, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setUp(3); err != nil {
			t.Fatal(err)
		}
		opts := passOpts{scratch: t.TempDir(), maxEpochs: c.epochs}
		plain, err := w.rep(5, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.trace = true
		tr, err := w.rep(5, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := &result{}
		sameRun(res, plain, tr)
		if res.failed != 0 {
			t.Errorf("%s: %v", name, res.problems)
		}
		if plain.epochs != c.epochs || plain.digest == "" {
			t.Errorf("%s: short run trained %d epochs, digest %q", name, plain.epochs, plain.digest)
		}
		switch name {
		case "transformer_pp2":
			if tr.log == nil || tr.log.pipeStats == nil || tr.log.pipeStats.Steps != tr.steps {
				t.Errorf("%s: traced pass read no pipeline engine statistics", name)
			}
		case "ncf_ckpt_serve":
			if tr.log == nil || tr.log.captures != 2 || tr.serverInfer == nil || tr.offlineInfer == nil {
				t.Errorf("%s: traced pass recorded no checkpoint or serving layer", name)
			}
		case "ncf_dp2_tcp":
			if len(tr.meshes) != 2 || tr.meshes[0].frames == 0 {
				t.Errorf("%s: traced pass recorded no mesh traffic", name)
			}
			if len(plain.stepLat) != plain.steps || plain.steps == 0 {
				t.Errorf("%s: timed %d of %d steps", name, len(plain.stepLat), plain.steps)
			}
		}
	}
}

func TestParseTopAndBuckets(t *testing.T) {
	out := []byte(`File: ttbench
Type: cpu
Showing nodes accounting for 400ms, 100% of 400ms total
      flat  flat%   sum%        cum   cum%
     200ms 50.00% 50.00%      200ms 50.00%  repro/internal/tensor.Conv2DBackwardSerialInto
     100ms 25.00% 75.00%      100ms 25.00%  runtime.mallocgc (inline)
      60ms 15.00% 90.00%       60ms 15.00%  syscall.Syscall6
      40ms 10.00%   100%       40ms 10.00%  encoding/binary.Write
`)
	rows, total, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if total != 400 || len(rows.names) != 4 {
		t.Fatalf("total %v over %d rows, want 400 over 4", total, len(rows.names))
	}
	want := []string{"cpu.tensor", "cpu.gc_alloc", "cpu.syscall", "cpu.other"}
	for i, fn := range rows.names {
		if got := cpuBucket(fn); got != want[i] {
			t.Errorf("cpuBucket(%q) = %s, want %s", fn, got, want[i])
		}
	}
	if cpuBucket("repro/internal/datasets.GenerateRec") != "cpu.data" || cpuBucket("repro/internal/data.(*Loader).Next") != "cpu.data" {
		t.Error("data and datasets packages must both map to cpu.data")
	}
}

func TestRotateAndQuantile(t *testing.T) {
	if got := rotate([]uint64{1, 2, 3}, 4); got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Errorf("rotate = %v", got)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if q := quantile([]float64{1, 2, 3, 4, 5}, 0.25); q != 2 {
		t.Errorf("q25 = %v, want 2", q)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the runs are
// judged against, in step with the metrics and workloads this code emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Error(err)
		}
	}
	compare := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code emits %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, layerMetrics)
}
