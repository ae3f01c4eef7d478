package main

import (
	"fmt"
	"time"

	"repro/internal/autograd"
	"repro/internal/ckpt"
	"repro/internal/clock"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/transport"
)

// epochLog is what the workload wrapper records about the calls core.Run
// makes into a workload.
type epochLog struct {
	clk        clock.Clock
	keepStates bool // traced runs keep every captured state for the write replay

	train, eval   time.Duration
	trainCPU      time.Duration // process CPU time spent in TrainEpoch
	trainEpochs   int
	evals         int
	steps         int // optimizer steps after the last TrainEpoch
	capture       time.Duration
	captures      int
	states        []*models.TrainState
	pipeStats     *pipeline.Stats // read at Close, before the engine is torn down
	pipeStages    int
	pipeMicrobats int
}

type paramsLister interface {
	Params() []*autograd.Param
}

type pipelineEngineer interface {
	Err() error
	Close()
	Engine() *pipeline.Engine
}

// wrap returns a workload that forwards to w and times its calls into log.
// core.Run discovers a workload's optional abilities (checkpointing, sticky
// errors, teardown, parameter capture) by type assertion, so the wrapper
// must have exactly the optional interfaces w has; wrap supports the three
// shapes this benchmark runs and rejects any other.
func wrap(w models.Workload, log *epochLog) (models.Workload, error) {
	if _, ok := w.(paramsLister); !ok {
		return nil, fmt.Errorf("wrap %T: no Params method", w)
	}
	if _, ok := w.(models.StepCounter); !ok {
		return nil, fmt.Errorf("wrap %T: no Steps method", w)
	}
	base := &timedWorkload{inner: w, log: log}
	_, stateful := w.(ckpt.Stateful)
	_, hasErr := w.(interface{ Err() error })
	_, hasClose := w.(interface{ Close() })
	_, hasEngine := w.(interface{ Engine() *pipeline.Engine })
	switch {
	case !stateful && !hasErr && !hasClose && !hasEngine:
		return base, nil
	case stateful && !hasErr && !hasClose && !hasEngine:
		return &statefulWorkload{base}, nil
	case stateful && hasErr && hasClose && hasEngine:
		return &pipelineWorkload{statefulWorkload{base}}, nil
	}
	return nil, fmt.Errorf("wrap %T: unsupported set of optional interfaces", w)
}

// timedWorkload is the serial model shape: Workload, Params and Steps.
type timedWorkload struct {
	inner models.Workload
	log   *epochLog
}

func (w *timedWorkload) Name() string { return w.inner.Name() }
func (w *timedWorkload) Epoch() int   { return w.inner.Epoch() }
func (w *timedWorkload) Steps() int   { return w.inner.(models.StepCounter).Steps() }

func (w *timedWorkload) Params() []*autograd.Param { return w.inner.(paramsLister).Params() }

func (w *timedWorkload) TrainEpoch() float64 {
	start, cpu := w.log.clk.Now(), cpuTime()
	loss := w.inner.TrainEpoch()
	w.log.train += w.log.clk.Now() - start
	w.log.trainCPU += cpuTime() - cpu
	w.log.trainEpochs++
	w.log.steps = w.Steps()
	return loss
}

func (w *timedWorkload) Evaluate() float64 {
	start := w.log.clk.Now()
	q := w.inner.Evaluate()
	w.log.eval += w.log.clk.Now() - start
	w.log.evals++
	return q
}

// statefulWorkload adds checkpointing (models.Recommendation's shape).
type statefulWorkload struct{ *timedWorkload }

func (w *statefulWorkload) CaptureTrainState() *models.TrainState {
	start := w.log.clk.Now()
	st := w.inner.(ckpt.Stateful).CaptureTrainState()
	w.log.capture += w.log.clk.Now() - start
	w.log.captures++
	if w.log.keepStates {
		w.log.states = append(w.log.states, st)
	}
	return st
}

func (w *statefulWorkload) RestoreTrainState(st *models.TrainState) error {
	return w.inner.(ckpt.Stateful).RestoreTrainState(st)
}

// pipelineWorkload adds the engine-backed abilities (pipeline.Workload's
// shape).
type pipelineWorkload struct{ statefulWorkload }

func (w *pipelineWorkload) Err() error               { return w.inner.(pipelineEngineer).Err() }
func (w *pipelineWorkload) Engine() *pipeline.Engine { return w.inner.(pipelineEngineer).Engine() }

func (w *pipelineWorkload) Close() {
	eng := w.Engine()
	st := eng.Stats()
	w.log.pipeStats = &st
	w.log.pipeStages, w.log.pipeMicrobats = eng.Stages(), eng.Microbatches()
	w.inner.(pipelineEngineer).Close()
}

// timedMesh times one rank's point-to-point traffic. An engine calls Send
// and Recv from one goroutine per endpoint, so the counters need no lock;
// they are read after that goroutine has finished.
type timedMesh struct {
	transport.Mesh
	clk            clock.Clock
	send, recvWait time.Duration
	frames, bytes  int
}

func (m *timedMesh) Send(to int, stream uint32, data []float64) error {
	start := m.clk.Now()
	err := m.Mesh.Send(to, stream, data)
	m.send += m.clk.Now() - start
	m.frames++
	m.bytes += 8 * len(data)
	return err
}

func (m *timedMesh) Recv(from int, stream uint32, buf []float64) ([]float64, error) {
	start := m.clk.Now()
	out, err := m.Mesh.Recv(from, stream, buf)
	m.recvWait += m.clk.Now() - start
	return out, err
}

// timedInfer times the batches the serving harness hands one inference
// context.
type timedInfer struct {
	inner   serve.InferContext
	clk     clock.Clock
	busy    time.Duration
	calls   int
	samples int
	// batchTime[s] is the inference time of the batch that last served
	// sample s; with no more queries than samples that batch is the query's.
	batchTime []time.Duration
}

func (c *timedInfer) InferBatch(samples []int, out []float64) {
	start := c.clk.Now()
	c.inner.InferBatch(samples, out)
	d := c.clk.Now() - start
	c.busy += d
	c.calls++
	c.samples += len(samples)
	for _, s := range samples {
		c.batchTime[s] = d
	}
}
