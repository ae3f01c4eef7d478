// Package models implements the seven MLPerf Training v0.5 benchmark
// models of Table 1, scaled to laptop size but structurally faithful:
// ResNet-v1.5-style image classifier, SSD-style one-stage detector,
// Mask R-CNN-style two-stage detector/segmenter, GNMT-style recurrent
// translator, Transformer translator, NCF recommender, and the MiniGo
// self-play reinforcement-learning agent. Each implements Workload, the
// interface the measurement harness (internal/core) drives.
package models

import (
	"repro/internal/autograd"
	"repro/internal/opt"
	"repro/internal/precision"
)

// Workload is one benchmark instance bound to its dataset, seed, and
// hyperparameters. The harness repeatedly calls TrainEpoch and Evaluate
// until the quality threshold is reached (time-to-train, §3.2).
type Workload interface {
	// Name returns the benchmark area name (Table 1 row).
	Name() string
	// TrainEpoch runs one pass over the training data, returning the mean
	// training loss (for logging).
	TrainEpoch() float64
	// Evaluate computes the benchmark's quality metric on validation data.
	Evaluate() float64
	// Epoch returns the number of completed training epochs.
	Epoch() int
}

// StepCounter is implemented by workloads that expose their global step
// count (used for per-step schedules and cost accounting).
type StepCounter interface {
	Steps() int
}

// trainStep factors the common tape lifecycle: zero grads, run forward to
// a loss, backprop, run postBackward (gradient clipping/quantization; may
// be nil), optimizer step. It returns the loss value. A non-nil tape is
// Reset and reused — workloads that train many steps keep one persistent
// tape so the steady-state step recycles every graph buffer; passing nil
// builds a throwaway tape.
//
// A non-nil mp runs the step under the mixed-precision trainer: it is
// bracketed by mp.BeginStep (bf16 master-weight round) and mp.Apply
// (restore masters, overflow check, unscaled optimizer step), and the
// backward pass is seeded with the dynamic loss scale. A nil mp is the
// plain step, so regime-agnostic workloads pass their trainer through.
func trainStep(tape *autograd.Tape, params []*autograd.Param, o opt.Optimizer, mp *precision.MP, forward func(tape *autograd.Tape) *autograd.Var, postBackward func()) float64 {
	for _, p := range params {
		p.ZeroGrad()
	}
	if tape == nil {
		tape = autograd.NewTape()
	} else {
		tape.Reset()
	}
	if mp != nil {
		mp.BeginStep()
	}
	loss := forward(tape)
	if mp != nil {
		tape.BackwardScaled(loss, mp.Scale())
	} else {
		tape.Backward(loss)
	}
	if postBackward != nil {
		postBackward()
	}
	if mp != nil {
		mp.Apply(o)
	} else {
		o.Step()
	}
	return loss.Scalar()
}
