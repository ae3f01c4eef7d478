package pipeline

// Checkpoint capture/restore for the engine. The data-parallel dimension
// keeps stage replicas bit-identical across workers (identical aggregated
// gradients per stage group), so the checkpoint is one worker wide:
// capture worker 0's stage shards in stage order — exactly the Params()
// gather — plus one optimizer state per stage, and restore into every
// worker's replica of each stage. At S = 1 under mixed precision the
// loss-scale position rides along (replicas share it: each makes the same
// decision from the same all-reduced gradient). In multi-process shard
// mode each rank hosts one (worker, stage) cell and checkpoints only its
// own shard; the per-rank files jointly cover the model, and each rank
// restores from its own. Per-(step, microbatch) RNG streams are pure
// functions of (seed, step, m) — the Step counter restores them.

import (
	"fmt"

	"repro/internal/autograd"
	"repro/internal/models"
	"repro/internal/opt"
)

// pipeCkptLabel labels engine snapshots inside checkpoints.
const pipeCkptLabel = "pipeline-engine"

// ckptRuntimes returns the runtimes a checkpoint covers, in capture order:
// worker 0's stages in stage order, or the single owned cell in shard mode.
func (e *Engine) ckptRuntimes() []*runtime {
	if e.cfg.Sharded() {
		return e.owned
	}
	rts := make([]*runtime, e.S)
	for s := 0; s < e.S; s++ {
		rts[s] = e.rts[0][s]
	}
	return rts
}

// CaptureTrainState snapshots the engine's full training position: the
// covered stage shards' parameters (concatenated, matching Params()), one
// optimizer state per covered stage, the loss-scale position in the mixed
// regime, the loader cursor, and the step/epoch counters.
func (e *Engine) CaptureTrainState() *models.TrainState {
	st := &models.TrainState{
		Step:   e.step,
		Epoch:  e.epoch,
		Params: models.TakeSnapshot(pipeCkptLabel, e.Params()),
	}
	ls := e.loader.State()
	st.Loader = &ls
	for _, rt := range e.ckptRuntimes() {
		if o, ok := rt.rep.Opt.(opt.Stateful); ok {
			st.Opts = append(st.Opts, o.CaptureState())
		}
		if rt.mp != nil {
			s := rt.mp.State()
			st.MP = &s
		}
	}
	return st
}

// RestoreTrainState installs a state captured by CaptureTrainState on a
// freshly built engine of the same configuration, restoring every hosted
// replica of every covered stage. Subsequent steps are bit-identical to
// the capturing engine's.
func (e *Engine) RestoreTrainState(st *models.TrainState) error {
	if st.Params == nil {
		return fmt.Errorf("pipeline: train state has no parameter snapshot")
	}
	cover := e.ckptRuntimes()
	if len(st.Opts) != len(cover) {
		return fmt.Errorf("pipeline: train state has %d optimizer states, engine wants %d", len(st.Opts), len(cover))
	}
	if st.Loader == nil {
		return fmt.Errorf("pipeline: train state has no loader position")
	}

	// Parameters: the snapshot is the covered cells' stage-order
	// concatenation, which matches every worker's own concatenation
	// name-for-name and shape-for-shape.
	if e.cfg.Sharded() {
		if err := st.Params.Restore(e.owned[0].params); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	} else {
		for k := 0; k < e.K; k++ {
			var cat []*autograd.Param
			for s := 0; s < e.S; s++ {
				cat = append(cat, e.rts[k][s].params...)
			}
			if err := st.Params.Restore(cat); err != nil {
				return fmt.Errorf("pipeline: worker %d: %w", k, err)
			}
		}
	}

	// Optimizer state per covered stage, into every hosted replica of that
	// stage (in shard mode only the owned cell exists).
	for i, rt := range cover {
		for k := 0; k < e.K; k++ {
			target := e.rts[k][rt.s]
			if target == nil {
				continue
			}
			o, ok := target.rep.Opt.(opt.Stateful)
			if !ok {
				return fmt.Errorf("pipeline: stage %d worker %d optimizer %T cannot restore state", rt.s, k, target.rep.Opt)
			}
			if err := o.RestoreState(st.Opts[i]); err != nil {
				return fmt.Errorf("pipeline: stage %d worker %d: %w", rt.s, k, err)
			}
			if (st.MP != nil) != (target.mp != nil) {
				return fmt.Errorf("pipeline: train state mixed-precision presence %v != engine %v", st.MP != nil, target.mp != nil)
			}
			if st.MP != nil {
				target.mp.SetState(*st.MP)
			}
		}
	}
	if err := e.loader.SetState(*st.Loader); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	e.step = st.Step
	e.epoch = st.Epoch
	return nil
}
