package pipeline

import (
	"repro/internal/autograd"
	"repro/internal/models"
)

// Workload adapts an Engine to the models.Workload interface (structurally
// — no models import is needed), so data-parallel, pipeline-parallel and
// hybrid DP×PP training plug into core.Run/core.RunSet unchanged: the
// harness drives TrainEpoch/Evaluate, applies the §3.2.1 timing rules, and
// emits compliant MLLOG streams while the engine trains across S×K stage
// goroutines under the hood.
type Workload struct {
	name string
	eng  *Engine
	eval func() float64
}

// NewWorkload wraps an engine. eval computes the benchmark's quality
// metric, conventionally from worker 0's model (the stages are views over
// one replica per worker, and replicas hold bit-identical parameters).
func NewWorkload(name string, eng *Engine, eval func() float64) *Workload {
	return &Workload{name: name, eng: eng, eval: eval}
}

// Name implements models.Workload.
func (w *Workload) Name() string { return w.name }

// TrainEpoch implements models.Workload.
func (w *Workload) TrainEpoch() float64 { return w.eng.TrainEpoch() }

// Evaluate implements models.Workload.
func (w *Workload) Evaluate() float64 { return w.eval() }

// Epoch implements models.Workload.
func (w *Workload) Epoch() int { return w.eng.Epoch() }

// Steps implements models.StepCounter.
func (w *Workload) Steps() int { return w.eng.Steps() }

// Engine exposes the underlying engine (stats, configuration).
func (w *Workload) Engine() *Engine { return w.eng }

// Err implements core's optional failure probe: the engine's first recorded
// step failure (peer death, transport error), or nil.
func (w *Workload) Err() error { return w.eng.Err() }

// Close stops the engine's persistent stage goroutines and returns its
// buffers to the arena. The measurement harness (core.Run) calls it when a
// run ends.
func (w *Workload) Close() { w.eng.Close() }

// CaptureTrainState implements ckpt.Stateful by delegating to the engine.
func (w *Workload) CaptureTrainState() *models.TrainState { return w.eng.CaptureTrainState() }

// RestoreTrainState implements ckpt.Stateful by delegating to the engine.
func (w *Workload) RestoreTrainState(st *models.TrainState) error { return w.eng.RestoreTrainState(st) }

// Params exposes the engine's representative parameter list (replica 0 /
// worker 0's stage gather), so core.Run can capture final-parameter
// snapshots of engine-backed runs.
func (w *Workload) Params() []*autograd.Param { return w.eng.Params() }
