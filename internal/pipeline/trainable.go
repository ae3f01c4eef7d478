package pipeline

import (
	"repro/internal/autograd"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// Trainable is the whole-model contract: a model the engine trains
// unsplit, as the single stage of a one-stage engine (pure data
// parallelism, or serial training at one worker). internal/models
// workloads implement it structurally (no import needed).
type Trainable interface {
	// Params returns the model's trainable parameters in a stable order
	// (identical across replicas built from the same factory and seed).
	Params() []*autograd.Param
	// MicrobatchLoss runs the forward pass over the given example indices
	// and returns the mean loss. All stochasticity (augmentation, negative
	// sampling, dropout) must flow through rng, which the engine derives
	// from (seed, step, microbatch) so the same microbatch sees the same
	// randomness at every worker count. Implementations may reuse their
	// batch buffers from call to call: the engine runs each microbatch's
	// backward before the next microbatch's forward at one stage.
	MicrobatchLoss(tape *autograd.Tape, idx []int, rng *tensor.RNG) *autograd.Var
}

// OneStage turns a whole model and its optimizer into the stage list of a
// one-stage engine (the factory return value at Stages == 1).
func OneStage(m Trainable, o opt.Optimizer) []StageReplica {
	return []StageReplica{{Stage: &wholeModel{m: m}, Opt: o}}
}

// Split returns one worker's stage list for an engine of the given depth:
// the whole model as the one stage at S = 1, else partition(S) — a model's
// PipelineStages — paired with the stages' own optimizers.
func Split[T StageWithOpt](stages int, m Trainable, o opt.Optimizer, partition func(int) ([]T, error)) ([]StageReplica, error) {
	if stages == 1 {
		return OneStage(m, o), nil
	}
	parts, err := partition(stages)
	return Wrap(parts), err
}

// wholeModel is a Trainable seen as the only (first and last) stage.
type wholeModel struct {
	m   Trainable
	out [1]*autograd.Var // the returned loss slice, reused so warm steps don't allocate
}

func (w *wholeModel) Params() []*autograd.Param { return w.m.Params() }

func (w *wholeModel) Forward(tape *autograd.Tape, _ int, idx []int, rng *tensor.RNG, _ []*autograd.Var) []*autograd.Var {
	w.out[0] = w.m.MicrobatchLoss(tape, idx, rng)
	return w.out[:]
}

// LoaderRNG derives the shuffling stream of an engine's loader from the run
// seed. Exported so serial baselines can traverse the data in exactly the
// engine's order. The stream depends only on the seed, never on the
// topology, so every (stages, workers) shape sees the same global batches.
func LoaderRNG(seed uint64) *tensor.RNG { return tensor.NewRNG(seed).Split(0xDA7A) }

// MicroshardRNG derives the deterministic randomness stream for microbatch
// m at the given step of a run seeded with seed: a pure function of
// (seed, step, m), so the same microbatch sees the same stream at every
// topology. Exported so serial baselines can replicate the engine's
// randomness exactly. Supports up to 2^20 microbatches.
func MicroshardRNG(seed uint64, step, m int) *tensor.RNG {
	r := &tensor.RNG{}
	MicroshardRNGInto(r, seed, step, m)
	return r
}

// MicroshardRNGInto reseeds dst in place to MicroshardRNG(seed, step, m)'s
// stream — the allocation-free form the engine's steady-state step uses on
// its per-runtime RNGs.
func MicroshardRNGInto(dst *tensor.RNG, seed uint64, step, m int) {
	var root tensor.RNG
	root.Reseed(seed ^ 0x9E3779B97F4A7C15)
	root.SplitInto(uint64(step)<<20|uint64(m), dst)
}
