package dist_test

import (
	"testing"

	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// newNCFEngineNumerics is newNCFEngine with an explicit compute regime.
func newNCFEngineNumerics(t testing.TB, workers, microbatches, batch int, seed uint64, num precision.Numerics) *pipeline.Engine {
	t.Helper()
	ds := recDSOnce()
	hp := models.DefaultNCFHParams()
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers},
		Stages:   1, Microbatches: microbatches,
		GlobalBatch: batch, DatasetN: len(ds.Train), Seed: seed,
		Numerics: num,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewRecommendation(ds, hp, seed)
		return pipeline.OneStage(m, m.Opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestDPNumericsBitIdenticalAcrossWorkerCounts extends the engine's
// headline determinism property to the reduced compute regimes: at a
// fixed seed, batch, and microbatch count, f32 and bf16(+loss scaling)
// training with K ∈ {2, 4} workers is bit-identical to the K = 1 run of
// the SAME regime. The f32 GEMM keeps the ascending-k accumulation order
// and every mixed-precision decision is a function of the identical
// all-reduced gradient, so worker count still never changes results.
func TestDPNumericsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const (
		microbatches = 4
		batch        = 64
		seed         = 11
		steps        = 16
	)
	for _, d := range []tensor.DType{tensor.Float32, tensor.BFloat16} {
		num := precision.NumericsFor(d)
		run := func(workers int) ([]float64, []float64) {
			eng := newNCFEngineNumerics(t, workers, microbatches, batch, seed, num)
			defer eng.Close()
			var losses []float64
			for s := 0; s < steps; s++ {
				losses = append(losses, eng.StepNext())
			}
			return flatValues(eng), losses
		}
		refParams, refLosses := run(1)
		for _, k := range []int{2, 4} {
			gotParams, gotLosses := run(k)
			for i := range refParams {
				if gotParams[i] != refParams[i] {
					t.Fatalf("%v workers=%d: param element %d = %g, serial %g (not bit-identical)", d, k, i, gotParams[i], refParams[i])
				}
			}
			for s := range refLosses {
				if gotLosses[s] != refLosses[s] {
					t.Fatalf("%v workers=%d: step %d loss %g, serial %g", d, k, s, gotLosses[s], refLosses[s])
				}
			}
		}

		// The regime must actually engage: reduced-precision training has
		// to diverge (in value, not quality) from the fp64 reference.
		f64 := newNCFEngineNumerics(t, 1, microbatches, batch, seed, precision.Numerics{})
		defer f64.Close()
		for s := 0; s < steps; s++ {
			f64.StepNext()
		}
		ref64 := flatValues(f64)
		same := true
		for i := range ref64 {
			if refParams[i] != ref64[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%v regime produced bitwise-fp64 parameters — reduced path not engaged", d)
		}
	}
}

// TestDPNumericsReplicasStayInSync checks the mixed-precision lockstep
// argument directly: after bf16+loss-scaling steps at K=4, all replicas
// (parameters AND optimizer state, via further steps) remain
// bit-identical — no replica ever made a different scale decision.
func TestDPNumericsReplicasStayInSync(t *testing.T) {
	eng := newNCFEngineNumerics(t, 4, 4, 64, 13, precision.NumericsFor(tensor.BFloat16))
	defer eng.Close()
	for s := 0; s < 12; s++ {
		eng.StepNext()
		if !eng.InSync() {
			t.Fatalf("replicas diverged after step %d under the mixed regime", s+1)
		}
	}
}
