package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/models"
)

// The golden values below were measured on the codec as it stood before
// MLPSNAP1 and MLPCKPT1 moved onto internal/codec; they pin the on-disk
// formats byte for byte. Round-trip tests alone cannot catch a format
// drift that the encoder and decoder share. A checkpoint digest is the
// FNV-1a seal over every preceding byte, so it pins the whole file.

// specialFloats are the float64 bit patterns a lossy or canonicalising
// encoder would mangle: a NaN with a payload, negative zero, +Inf and the
// smallest subnormal.
func specialFloats() []float64 {
	return []float64{
		math.Float64frombits(0x7ff8000000000001),
		math.Copysign(0, -1),
		math.Inf(1),
		math.Float64frombits(1),
	}
}

// specialState is sampleState with special floats in the parameters, the
// optimizer slots, the loss scale and an RNG spare.
func specialState() *models.TrainState {
	st := sampleState()
	st.Params = &models.Snapshot{
		Benchmark: "special",
		Params:    []models.SnapParam{{Name: "x", Shape: []int{2, 2}, Data: specialFloats()}},
	}
	st.Opts[0].LR = math.Copysign(0, -1)
	st.Opts[0].Slots = [][]float64{specialFloats(), specialFloats()}
	st.MP.Scale = math.Inf(1)
	st.RNGs[0].State.Spare = math.Float64frombits(0x7ff8000000000001)
	return st
}

func TestGoldenFormat(t *testing.T) {
	cases := []struct {
		name string
		st   *models.TrainState
		// Checkpoint file: length and seal.
		ckptLen    int
		ckptDigest string
		// Embedded snapshot: length, SHA-256 and content digest.
		snapLen    int
		snapSHA    string
		snapDigest string
	}{
		{
			name: "sample", st: sampleState(),
			ckptLen: 488, ckptDigest: "a3b94ce2ef00021d",
			snapLen: 124, snapSHA: "35623079f19d1637c370dd38e8dd63326e3a238e1ad60c9ea24666281983483d",
			snapDigest: "02e73460c069c997",
		},
		{
			name: "special_floats", st: specialState(),
			ckptLen: 424, ckptDigest: "a14bb95c430a83e1",
			snapLen: 84, snapSHA: "47034cdcf954a2f9e9fdec71a2e4eb37aca7cb9cf6ec286f602f103068267989",
			snapDigest: "bb2fafd42477ac2d",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ck bytes.Buffer
			dig, err := Save(&ck, tc.st)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Len() != tc.ckptLen || dig != tc.ckptDigest {
				t.Errorf("checkpoint: %d bytes, digest %s; want %d bytes, digest %s", ck.Len(), dig, tc.ckptLen, tc.ckptDigest)
			}
			var sn bytes.Buffer
			if err := tc.st.Params.Save(&sn); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(sn.Bytes())
			if got := hex.EncodeToString(sum[:]); sn.Len() != tc.snapLen || got != tc.snapSHA {
				t.Errorf("snapshot: %d bytes, sha256 %s; want %d bytes, sha256 %s", sn.Len(), got, tc.snapLen, tc.snapSHA)
			}
			if got := tc.st.Params.Digest(); got != tc.snapDigest {
				t.Errorf("snapshot digest %s, want %s", got, tc.snapDigest)
			}
			// The special bit patterns survive a load unchanged.
			back, err := Load(bytes.NewReader(ck.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if d, _ := Digest(back); d != dig {
				t.Errorf("reloaded checkpoint digests to %s, want %s", d, dig)
			}
		})
	}
}
