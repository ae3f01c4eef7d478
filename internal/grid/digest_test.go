package grid

import (
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// TestDigestGolden pins the trajectory digest to the value measured before
// it moved onto internal/codec: a resumed worker restores digest_h from a
// checkpoint written by an older binary, so the fold must never drift.
func TestDigestGolden(t *testing.T) {
	params := []*autograd.Param{
		autograd.NewParam("w", tensor.FromSlice([]float64{1, -2.5, 3.25, 0}, 2, 2)),
		autograd.NewParam("b", tensor.FromSlice([]float64{0.5, -0.125}, 2)),
	}
	d := NewDigest()
	d.Add(params)
	d.Add(params)
	if got, want := d.Sum(), "835b9a707b67d879"; got != want {
		t.Fatalf("Sum = %s, want %s", got, want)
	}
	if d.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", d.Steps())
	}
}
