package models

import (
	"math"
	"slices"
	"testing"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// greedyDecodeTapeRef is the retained per-sentence tape decode, the oracle
// the batched greedy decoder is held to. At each step t it records the
// whole encoder-decoder on a tape, re-runs the decoder over all tgtLen
// positions and reads logits row t. It returns the tokens before EOS and
// every step's logits row.
func greedyDecodeTapeRef(w *Translation, src []int) ([]int, [][]float64) {
	padded := make([]int, w.srcLen)
	copy(padded, src)
	tape := autograd.NewTape()
	ctx := nn.NewCtx(tape, false, w.rng)
	memory := w.Net.Encode(ctx, [][]int{padded})
	decIn := make([]int, w.tgtLen)
	decIn[0] = datasets.BOS
	var out []int
	var logitRows [][]float64
	for t := 0; t < w.tgtLen; t++ {
		logits := w.Net.Decode(ctx, [][]int{decIn}, memory, w.srcLen)
		m := logits.Value.Shape[1]
		logitRows = append(logitRows, slices.Clone(logits.Value.Data[t*m:(t+1)*m]))
		next := argmaxRow(logits.Value, t)
		if next == datasets.EOS {
			break
		}
		out = append(out, next)
		if t+1 < w.tgtLen {
			decIn[t+1] = next
		}
	}
	return out, logitRows
}

// checkDecodeMatchesRef decodes srcs as one batch and requires every
// sentence's tokens and per-step logits rows to equal the tape oracle's
// bit for bit.
func checkDecodeMatchesRef(t *testing.T, w *Translation, label string, srcs [][]int) {
	t.Helper()
	got := make([][][]float64, len(srcs))
	toks := w.decoder(len(srcs)).decode(srcs, func(step int, active []int, logits *tensor.Tensor) {
		m := logits.Shape[1]
		for r, s := range active {
			if len(got[s]) != step {
				t.Fatalf("%s: sentence %d has %d logits rows at step %d", label, s, len(got[s]), step)
			}
			got[s] = append(got[s], slices.Clone(logits.Data[r*m:(r+1)*m]))
		}
	})
	for s, src := range srcs {
		wantToks, wantLogits := greedyDecodeTapeRef(w, src)
		if !slices.Equal(toks[s], wantToks) {
			t.Fatalf("%s: sentence %d tokens %v, tape decode %v", label, s, toks[s], wantToks)
		}
		if len(got[s]) != len(wantLogits) {
			t.Fatalf("%s: sentence %d decoded %d steps, tape decode %d", label, s, len(got[s]), len(wantLogits))
		}
		for step, row := range wantLogits {
			for j, v := range row {
				if math.Float64bits(got[s][step][j]) != math.Float64bits(v) {
					t.Fatalf("%s: sentence %d step %d logit %d = %v, tape decode %v",
						label, s, step, j, got[s][step][j], v)
				}
			}
		}
	}
}

// TestGreedyDecodeMatchesTapeRef holds the batched, cached, tape-free
// decoder to the per-sentence tape decode: all validation sentences at
// once, one sentence alone, and a subset mixing target lengths in a new
// batch order (a sentence's output must not depend on its batch-mates),
// for two seeds, untrained and trained. The -short variant trains one
// epoch on the quarter-size corpus.
func TestGreedyDecodeMatchesTapeRef(t *testing.T) {
	cfg, epochs := datasets.DefaultMTConfig(), 3
	if testing.Short() {
		cfg, epochs = shortMTConfig(), 1
	}
	ds := datasets.GenerateMT(cfg)
	all, _ := mtValidation(ds)
	// One sentence of each target length, in descending index order.
	var mixed [][]int
	seen := map[int]bool{}
	for i := len(ds.Val) - 1; i >= 0; i-- {
		if n := len(ds.Val[i].Tgt); !seen[n] {
			seen[n] = true
			mixed = append(mixed, ds.Val[i].Src)
		}
	}
	if len(mixed) < 2 {
		t.Fatalf("validation split has %d target lengths, want a mix", len(mixed))
	}
	for _, seed := range []uint64{1, 2} {
		w := NewTranslation(ds, DefaultTransformerHParams(), seed)
		for _, trained := range []bool{false, true} {
			label := "untrained"
			if trained {
				for e := 0; e < epochs; e++ {
					w.TrainEpoch()
				}
				label = "trained"
				if bleu := w.Evaluate(); !testing.Short() && bleu <= 0 {
					t.Fatalf("seed %d: BLEU %v after %d epochs; the trained check needs BLEU > 0", seed, bleu, epochs)
				}
			}
			checkDecodeMatchesRef(t, w, label+"/all", all)
			checkDecodeMatchesRef(t, w, label+"/single", all[len(all)/2:len(all)/2+1])
			checkDecodeMatchesRef(t, w, label+"/mixed", mixed)
		}
	}
}

// gnmtGreedyDecodeRef is the retained per-sentence GNMT greedy decode, the
// oracle for the lockstep batched RNNTranslation.translate.
func gnmtGreedyDecodeRef(w *RNNTranslation, src []int) []int {
	padded := make([]int, w.srcLen)
	copy(padded, src)
	ctx := nn.NewCtx(autograd.NewTape(), false, w.rng)
	encOuts := w.Net.Encode(ctx, [][]int{padded})
	states := w.Net.Decoder.ZeroState(1)
	cur := datasets.BOS
	var out []int
	for t := 0; t < w.tgtLen; t++ {
		var logits *autograd.Var
		logits, states = w.Net.DecodeStep(ctx, []int{cur}, states, encOuts)
		next := argmaxRow(logits.Value, 0)
		if next == datasets.EOS {
			break
		}
		out = append(out, next)
		cur = next
	}
	return out
}

// TestGNMTBatchedDecodeMatchesPerSentence requires the lockstep batched
// GNMT decode to emit the per-sentence decode's tokens for every
// validation sentence, untrained and after one epoch.
func TestGNMTBatchedDecodeMatchesPerSentence(t *testing.T) {
	ds := datasets.GenerateMT(shortMTConfig())
	srcs, _ := mtValidation(ds)
	w := NewRNNTranslation(ds, DefaultGNMTHParams(), 42)
	for epoch := 0; epoch < 2; epoch++ {
		if epoch > 0 {
			w.TrainEpoch()
		}
		got := w.translate(srcs)
		for s, src := range srcs {
			if want := gnmtGreedyDecodeRef(w, src); !slices.Equal(got[s], want) {
				t.Fatalf("epoch %d sentence %d: batched %v, per-sentence %v", epoch, s, got[s], want)
			}
		}
	}
}
