package dist_test

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// TestDPResumeBitIdentity is the data-parallel resume contract: capture at
// step t, serialize through the checkpoint format, restore into a freshly
// built engine, and the continuation is bit-identical to the
// uninterrupted run — losses and parameters. Under the bf16 mixed regime
// the checkpoint also carries the loss-scale position.
func TestDPResumeBitIdentity(t *testing.T) {
	const (
		workers      = 2
		microbatches = 8
		batch        = 64
		seed         = 11
		stopAt       = 7
		total        = 14
	)
	for _, num := range []precision.Numerics{{}, precision.NumericsFor(tensor.BFloat16)} {
		ref := newNCFEngineNumerics(t, workers, microbatches, batch, seed, num)
		defer ref.Close()
		for s := 0; s < stopAt; s++ {
			ref.StepNext()
		}
		st := ref.CaptureTrainState()
		if st.Step != stopAt {
			t.Fatalf("%v: captured step = %d, want %d", num.Compute, st.Step, stopAt)
		}
		if (st.MP != nil) != num.Mixed {
			t.Fatalf("%v: captured mixed-precision state %v, want %v", num.Compute, st.MP != nil, num.Mixed)
		}

		// Round-trip through the serialized checkpoint: what lands on disk
		// is what resumes.
		var buf bytes.Buffer
		if _, err := ckpt.Save(&buf, st); err != nil {
			t.Fatalf("ckpt.Save: %v", err)
		}
		loaded, err := ckpt.Load(&buf)
		if err != nil {
			t.Fatalf("ckpt.Load: %v", err)
		}

		var refLosses []float64
		for s := stopAt; s < total; s++ {
			refLosses = append(refLosses, ref.StepNext())
		}
		refParams := flatValues(ref)

		res := newNCFEngineNumerics(t, workers, microbatches, batch, seed, num)
		defer res.Close()
		if err := res.RestoreTrainState(loaded); err != nil {
			t.Fatalf("%v: RestoreTrainState: %v", num.Compute, err)
		}
		if res.Steps() != stopAt {
			t.Fatalf("%v: restored engine at step %d, want %d", num.Compute, res.Steps(), stopAt)
		}
		if !res.InSync() {
			t.Fatalf("%v: restored replicas are not bit-identical", num.Compute)
		}
		for i, want := range refLosses {
			if got := res.StepNext(); got != want {
				t.Fatalf("%v: resumed step %d loss = %v, reference %v", num.Compute, stopAt+i, got, want)
			}
		}
		gotParams := flatValues(res)
		for i := range refParams {
			if gotParams[i] != refParams[i] {
				t.Fatalf("%v: param element %d = %g, reference %g (resume not bit-identical)", num.Compute, i, gotParams[i], refParams[i])
			}
		}
	}
}

// TestDPRestoreValidation checks structural mismatches are rejected,
// including a mixed-precision position offered to a full-precision engine
// and its absence offered to a mixed one.
func TestDPRestoreValidation(t *testing.T) {
	eng, _ := newNCFEngine(t, 2, 8, 64, 3)
	defer eng.Close()
	eng.StepNext()
	st := eng.CaptureTrainState()

	noParams := *st
	noParams.Params = nil
	if err := eng.RestoreTrainState(&noParams); err == nil {
		t.Error("accepted state without parameters")
	}
	noOpt := *st
	noOpt.Opts = nil
	if err := eng.RestoreTrainState(&noOpt); err == nil {
		t.Error("accepted state without optimizer state")
	}
	noLoader := *st
	noLoader.Loader = nil
	if err := eng.RestoreTrainState(&noLoader); err == nil {
		t.Error("accepted state without loader position")
	}
	withMP := *st
	withMP.MP = &precision.MPState{Scale: 1}
	if err := eng.RestoreTrainState(&withMP); err == nil {
		t.Error("full-precision engine accepted a mixed-precision state")
	}
	if err := eng.RestoreTrainState(st); err != nil {
		t.Errorf("rejected valid state: %v", err)
	}

	mixed := newNCFEngineNumerics(t, 2, 8, 64, 3, precision.NumericsFor(tensor.BFloat16))
	defer mixed.Close()
	mixed.StepNext()
	mst := mixed.CaptureTrainState()
	noMP := *mst
	noMP.MP = nil
	if err := mixed.RestoreTrainState(&noMP); err == nil {
		t.Error("mixed-precision engine accepted a state without its loss-scale position")
	}
	if err := mixed.RestoreTrainState(mst); err != nil {
		t.Errorf("mixed-precision engine rejected its own state: %v", err)
	}
}
