// Package pipeline implements the repo's real — not analytic — training
// engine for every parallel topology: data parallelism, pipeline
// parallelism, and both at once. Pipelining is the model-parallel scale
// axis the paper's companions ("Scale MLPerf-0.6 models on Google TPU-v3
// Pods", "Exploring the Limits of Concurrency in ML Training on Google
// TPUs") use once data parallelism alone stops scaling (§5, Figures 4–5);
// data parallelism is the same engine at S = 1 (see below). A layered
// model is split into S contiguous stages (cost-balanced cuts at block
// boundaries; see the partitioners in internal/models); each global
// minibatch is split into M microbatches that flow through the stage
// runtimes, which exchange boundary activations and activation-gradients
// over the pluggable transport layer (internal/transport). Two microbatch
// schedules are implemented, selected by Config.Schedule:
//
//	GPipe (fill-drain)                    1F1B (one-forward-one-backward)
//	S0 F0 F1 F2 F3 ·· ·· ·· B3 B2 B1 B0   S0 F0 F1 F2 B0 F3 B1 B2 B3
//	S1 ·· F0 F1 F2 F3 ·· B3 B2 B1 B0 ··   S1 ·· F0 F1 B0 F2 B1 F3 B2 B3
//	S2 ·· ·· F0 F1 F2 F3 B3 B2 B1 B0 ··   S2 ·· ·· F0 B0 F1 B1 F2 B2 F3 B3
//
// (Fj/Bj = forward/backward of microbatch j; time flows right. GPipe runs
// every forward before any backward, keeping all M microbatches live; 1F1B
// drains backwards as soon as the pipeline is full, bounding live
// microbatches — and so tapes — per stage at S−s while filling the same
// (S−1)/M bubble.)
//
// By default the S·K stage runtimes are goroutines exchanging boundary
// frames through the in-process channel fabric; with Config.Mesh set the
// engine runs in multi-process shard mode, hosting only the (replica,
// stage) cell Config.Rank names in the rank = k·S + s grid layout and
// exchanging boundaries/gradients with the other OS processes (launched by
// cmd/mlperf-worker; see internal/grid). Boundary frames copy float64 bits
// exactly, so the transport never affects results.
//
// # Determinism
//
// Both schedules are bit-identical to the serial microbatch baseline: per
// microbatch a forward, a backward, and the gradient weighted by the
// microbatch's share of the batch, summed over microbatches in ascending
// order before one optimizer step. The unit of gradient reduction
// is the microbatch: each stage computes every owned microbatch's gradient
// into its own row (per-microbatch forward/backward is the same op
// sequence as the unsplit model, because stage boundaries are numerically
// transparent), and rows are summed in ascending microbatch order
// regardless of the schedule's backward execution order. Runs sharing
// seed, global batch, and Microbatches therefore produce bit-identical
// parameters for ANY (Stages, Schedule, Workers) combination — the grid
// the engine's tests assert against a hand-written serial microbatch loop.
//
// Boundary transfers need only ordered per-(sender, receiver, stream)
// lanes, which every Mesh guarantees: forward slots are produced and
// consumed in ascending order at every stage, and each schedule fixes one
// backward order shared by every stage (GPipe descending, 1F1B ascending),
// so sender and receiver always agree on the slot sequence — the slot index
// carried in each frame is a corruption check, not a reordering mechanism.
//
// # Hybrid DP×PP
//
// Config.Workers replicates every stage K ways: replica k owns the
// contiguous microbatches [k·M/K, (k+1)·M/K), runs its own pipeline over
// them, and the K replicas of each stage then sum all M gradient rows with
// the chunked ring all-reduce (Ring) — S concurrent stage-group rings over
// disjoint parameter shards, each 1/S the payload of pure data parallelism.
//
// # Data parallelism: S = 1
//
// At Stages == 1 the engine is a synchronous data-parallel trainer: OneStage
// adapts any whole model (Trainable) and its optimizer into the single
// stage, each of the K replicas computes its M/K microbatch gradients, and
// one ring sums all M rows. With no boundary to wait on, every schedule
// runs each microbatch's forward and backward back to back (1F1B with an
// empty warmup), so a replica holds one live tape and the model may reuse
// its batch buffers across microbatches. Only this shape admits the
// mixed-precision step bracket (Config.Numerics.Mixed): master-weight
// rounds and dynamic loss scaling act on the whole model at once.
package pipeline

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/arena"
	"repro/internal/autograd"
	"repro/internal/clock"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Boundary stream tags (see the transport.Mesh stream contract). Forward
// and backward boundaries flow between adjacent-stage ranks, disjoint from
// the stage-group rings' same-stage rank pairs, so the tags cannot collide
// with Ring traffic on a shared multi-process mesh.
const (
	streamFwd uint32 = 1 // forward activations, stage s -> s+1
	streamBwd uint32 = 2 // activation gradients, stage s+1 -> s
)

// Schedule selects the microbatch execution order.
type Schedule string

const (
	// GPipe is the fill-drain schedule: all forwards, then all backwards.
	GPipe Schedule = "gpipe"
	// OneFOneB is the 1F1B schedule: after a warmup of S−1−s forwards,
	// stage s alternates one forward with one backward, bounding in-flight
	// activation memory per stage.
	OneFOneB Schedule = "1f1b"
)

// Stage is one contiguous model segment owned by one pipeline stage.
// internal/models workloads implement it structurally (no import needed)
// via their PipelineStages partitioners.
type Stage interface {
	// Params returns the stage's trainable parameter shard in a stable
	// order (identical across replicas built from the same factory+seed).
	Params() []*autograd.Param
	// Forward runs the stage over one microbatch on the given tape. slot
	// identifies the in-flight microbatch (0..M/K−1) so implementations
	// can keep per-slot input buffers alive until the backward pass. The
	// first stage receives in == nil and assembles the microbatch from
	// idx; later stages receive the upstream boundary activations as
	// differentiable leaves. The last stage returns exactly one output:
	// the scalar microbatch mean loss. All stochasticity must flow
	// through rng (derived from (seed, step, microbatch); see
	// MicroshardRNG). The returned slice must stay valid until the next
	// Forward call with the same slot.
	Forward(tape *autograd.Tape, slot int, idx []int, rng *tensor.RNG, in []*autograd.Var) []*autograd.Var
}

// StageReplica couples one stage's segment with its optimizer. Optimizers
// must be elementwise (SGD/Adam/LARS are) so per-stage updates compose to
// the serial full-model update.
type StageReplica struct {
	Stage Stage
	Opt   opt.Optimizer
}

// StageWithOpt is a Stage that carries its own optimizer — what the
// internal/models partitioners return.
type StageWithOpt interface {
	Stage
	Optimizer() opt.Optimizer
}

// Wrap converts a partitioner's stage slice into engine stage replicas
// (the factory return value), pairing each stage with the optimizer it
// carries.
func Wrap[T StageWithOpt](parts []T) []StageReplica {
	out := make([]StageReplica, len(parts))
	for i, p := range parts {
		out[i] = StageReplica{Stage: p, Opt: p.Optimizer()}
	}
	return out
}

// Config parameterizes the engine. The embedded transport.Endpoint carries
// the communication-group spec: Workers (K, the per-stage replica count;
// K > 1 gives data parallelism, hybrid DP×PP at S > 1), Chunks (the
// stage-group ring grain), Clock, and the transport selection. In
// multi-process shard mode Mesh's world must be Stages·Workers and Rank
// names the (replica, stage) cell rank = k·Stages + s this process hosts.
type Config struct {
	transport.Endpoint

	// Stages is S, the pipeline depth (>= 1; 1 is pure data parallelism).
	Stages int
	// Microbatches is M, the number of microbatches per global minibatch
	// and the fixed gradient-reduction granularity. It must be a positive
	// multiple of Workers and at most GlobalBatch. 0 selects
	// Workers·min(Stages, GlobalBatch/Workers) (Workers at S = 1) —
	// reasonable for that shape, but cross-configuration bit-identity
	// requires pinning Microbatches to one value for every run being
	// compared.
	Microbatches int
	// Schedule picks the microbatch order; empty selects GPipe. It never
	// affects results, only the activation-liveness profile (and nothing
	// at S = 1, where every schedule is 1F1B).
	Schedule Schedule
	// GlobalBatch is the per-step example count.
	GlobalBatch int
	// DatasetN is the number of training examples the loader shuffles.
	DatasetN int
	// DropLast forwards to the loader.
	DropLast bool
	// Seed drives epoch shuffling and per-(step, microbatch) RNG streams
	// (LoaderRNG, MicroshardRNG).
	Seed uint64
	// LR, when non-nil, sets every stage optimizer's learning rate from
	// the global step before each update.
	LR opt.Schedule
	// Arena, when non-nil, is the shared buffer pool the engine draws its
	// steady-state float buffers from (and returns them to on Close).
	Arena *arena.Arena
	// Numerics selects the training compute regime (§2.2.3): the tape
	// dtype of every stage and, when Mixed, the mixed-precision step
	// bracket (master-weight rounds + dynamic loss scaling). The zero
	// value is the float64 reference. Reduced regimes keep the
	// determinism contract: the microbatch reduction order is unchanged,
	// and every replica's loss-scale decision is a function of the
	// identical all-reduced gradient, so replicas stay in lockstep. The
	// bracket is whole-model, so Mixed requires Stages == 1.
	Numerics precision.Numerics
}

// Stats counts the engine's communication and compute activity.
type Stats struct {
	// Steps is the number of optimizer steps taken.
	Steps int
	// RingMessages / RingBytes count the stage-group gradient all-reduce
	// traffic (all S rings, whole-ring totals — also in shard mode).
	RingMessages int
	RingBytes    int
	// ActivationSends / ActivationBytes count boundary tensor transfers
	// between adjacent stages (forward activations + backward gradients;
	// tensor payload bytes, excluding frame headers). In shard mode only
	// the locally-hosted cell's sends are counted.
	ActivationSends int
	ActivationBytes int
	// StepTime is cumulative wall time spent inside Step.
	StepTime time.Duration
}

// runtime is one (stage, worker) execution context: a persistent goroutine
// (or the caller's goroutine, in shard mode) with pooled tapes over a
// private arena free list and a boundary-mesh endpoint.
type runtime struct {
	s, k   int
	rank   int // mesh rank k·S + s
	rep    StageReplica
	params []*autograd.Param

	local *arena.Local
	// tapes holds one tape per microbatch the schedule keeps live at once;
	// slot j uses tapes[j % len(tapes)].
	tapes []*autograd.Tape
	rng   tensor.RNG

	// mp is the mixed-precision trainer (nil unless Numerics.Mixed, which
	// implies S == 1); scale is the step's backward seed (1 without mp).
	mp    *precision.MP
	scale float64

	// mesh is the boundary endpoint (nil when S == 1: no boundaries).
	mesh transport.Mesh

	ins  [][]*autograd.Var // per-slot leaf lists (reused backing arrays)
	outs [][]*autograd.Var // per-slot stage outputs (stage-owned slices)

	// rvals holds per-slot received boundary tensors: decoded forward
	// frames live here so LeafOf values stay valid until the slot's
	// backward replay. Tensors are reallocated only on shape change, so
	// warm steps don't allocate.
	rvals [][]*tensor.Tensor

	// enc/rcv are the frame scratch buffers (encode before Send, receive
	// target for Recv). They grow to the largest boundary frame and are
	// then reused — the Send/Recv copies keep warm steps allocation-free.
	enc []float64
	rcv []float64
	// tvals is the reusable value-tensor list sendBoundary frames from.
	tvals []*tensor.Tensor

	sends, bytes int // cumulative activation-transfer accounting

	startCh chan struct{}
}

// Engine is a pipeline-parallel (optionally hybrid data-parallel) trainer.
type Engine struct {
	cfg     Config
	S, K, M int
	mLocal  int

	rts [][]*runtime // [k][s]; nil cells are hosted by other processes
	// owned lists the locally-hosted runtimes: all S·K cells by default,
	// exactly one in shard mode.
	owned []*runtime
	// params is what Params returns, built once in New.
	params []*autograd.Param
	// ownMesh is set when the engine built its own boundary fabric (and
	// must close its endpoints); an injected Config.Mesh is never closed.
	ownMesh bool

	flatLen []int         // per-stage flattened gradient length
	gbuf    [][][]float64 // [s][m]: per-microbatch gradient rows (owned cells only)
	agg     [][][]float64 // [s][k]: per-replica aggregates (owned cells only)
	rings   []*Ring       // per-stage group collective (owned stages only)
	losses  []float64     // per-microbatch weighted losses

	loader *data.Loader
	epoch  int
	step   int

	shards [][]int
	invB   float64

	buffers *arena.Arena
	stepWG  sync.WaitGroup
	closed  bool

	// First step failure (peer death, transport error) — sticky; once set
	// the engine refuses further steps. Guarded by failMu.
	failMu  sync.Mutex
	failErr error

	// clock times Step (Config.Clock, defaulted in New).
	clock clock.Clock

	stats Stats
}

// New builds an engine. factory is called sequentially for each worker this
// process hosts — 0..Workers-1 in the default mode, only Rank/Stages' worker
// in shard mode — and must return the same number of stages each time, with
// bit-identical initial parameters across workers (build the same model
// from the same seed and partition it identically).
func New(cfg Config, factory func(worker int) []StageReplica) (*Engine, error) {
	if err := cfg.Endpoint.Validate("pipeline"); err != nil {
		return nil, err
	}
	if cfg.Stages < 1 {
		return nil, fmt.Errorf("pipeline: Stages %d < 1", cfg.Stages)
	}
	if cfg.Sharded() && cfg.Mesh.World() != cfg.Stages*cfg.Workers {
		return nil, fmt.Errorf("pipeline: Mesh world %d != Stages %d × Workers %d", cfg.Mesh.World(), cfg.Stages, cfg.Workers)
	}
	if cfg.GlobalBatch < 1 {
		return nil, fmt.Errorf("pipeline: GlobalBatch %d < 1", cfg.GlobalBatch)
	}
	if cfg.DatasetN < 1 {
		return nil, fmt.Errorf("pipeline: DatasetN %d < 1", cfg.DatasetN)
	}
	if cfg.DropLast && cfg.GlobalBatch > cfg.DatasetN {
		return nil, fmt.Errorf("pipeline: DropLast with GlobalBatch %d > DatasetN %d yields zero steps per epoch", cfg.GlobalBatch, cfg.DatasetN)
	}
	if cfg.Microbatches < 0 {
		return nil, fmt.Errorf("pipeline: Microbatches %d < 0 (0 selects a default)", cfg.Microbatches)
	}
	if cfg.Microbatches == 0 {
		per := cfg.GlobalBatch / cfg.Workers
		if per > cfg.Stages {
			per = cfg.Stages
		}
		if per < 1 {
			per = 1
		}
		cfg.Microbatches = cfg.Workers * per
	}
	if cfg.Microbatches%cfg.Workers != 0 {
		return nil, fmt.Errorf("pipeline: Microbatches %d must be a positive multiple of Workers %d", cfg.Microbatches, cfg.Workers)
	}
	if cfg.Microbatches > cfg.GlobalBatch {
		return nil, fmt.Errorf("pipeline: Microbatches %d > GlobalBatch %d leaves permanently empty microbatches", cfg.Microbatches, cfg.GlobalBatch)
	}
	if cfg.Numerics.Mixed && cfg.Stages > 1 {
		return nil, fmt.Errorf("pipeline: mixed-precision numerics need Stages == 1 (the master-weight/loss-scaling bracket is whole-model), got %d stages", cfg.Stages)
	}
	switch cfg.Schedule {
	case "":
		cfg.Schedule = GPipe
	case GPipe, OneFOneB:
	default:
		return nil, fmt.Errorf("pipeline: unknown schedule %q (want %q or %q)", cfg.Schedule, GPipe, OneFOneB)
	}
	if factory == nil {
		return nil, fmt.Errorf("pipeline: nil stage factory")
	}

	e := &Engine{
		cfg: cfg,
		S:   cfg.Stages, K: cfg.Workers, M: cfg.Microbatches,
		mLocal: cfg.Microbatches / cfg.Workers,
		clock:  cfg.Clock,
	}
	if e.clock == nil {
		e.clock = clock.NewReal()
	}
	e.buffers = cfg.Arena
	if e.buffers == nil {
		e.buffers = arena.New()
	}

	newRuntime := func(k, s int, rep StageReplica) (*runtime, error) {
		if rep.Stage == nil || rep.Opt == nil {
			return nil, fmt.Errorf("pipeline: factory returned incomplete stage %d for worker %d", s, k)
		}
		rt := &runtime{s: s, k: k, rank: k*e.S + s, rep: rep, params: rep.Stage.Params(), scale: 1}
		rt.local = e.buffers.NewLocal()
		rt.tapes = make([]*autograd.Tape, e.liveSlots(s))
		for j := range rt.tapes {
			rt.tapes[j] = autograd.NewTapeIn(rt.local) //mlperfvet:owns — runtime state, released in Close
			rt.tapes[j].SetDType(cfg.Numerics.Compute)
		}
		rt.mp = cfg.Numerics.NewTrainer(rt.params)
		rt.ins = make([][]*autograd.Var, e.mLocal)
		rt.outs = make([][]*autograd.Var, e.mLocal)
		rt.rvals = make([][]*tensor.Tensor, e.mLocal)
		return rt, nil
	}

	e.rts = make([][]*runtime, e.K)
	for k := range e.rts {
		e.rts[k] = make([]*runtime, e.S)
	}
	if cfg.Sharded() {
		k0, s0 := cfg.Rank/e.S, cfg.Rank%e.S
		reps := factory(k0)
		if len(reps) != e.S {
			return nil, fmt.Errorf("pipeline: factory returned %d stages for worker %d, want %d", len(reps), k0, e.S)
		}
		rt, err := newRuntime(k0, s0, reps[s0])
		if err != nil {
			return nil, err
		}
		e.rts[k0][s0] = rt
		e.owned = []*runtime{rt}
	} else {
		for k := 0; k < e.K; k++ {
			reps := factory(k)
			if len(reps) != e.S {
				return nil, fmt.Errorf("pipeline: factory returned %d stages for worker %d, want %d", len(reps), k, e.S)
			}
			for s, rep := range reps {
				rt, err := newRuntime(k, s, rep)
				if err != nil {
					return nil, err
				}
				e.rts[k][s] = rt
				e.owned = append(e.owned, rt)
			}
		}
	}

	e.flatLen = make([]int, e.S)
	for _, rt := range e.owned {
		e.flatLen[rt.s] = autograd.FlatSize(rt.params)
		if e.flatLen[rt.s] == 0 {
			return nil, fmt.Errorf("pipeline: stage %d has no parameters", rt.s)
		}
	}
	// Cross-replica identity is only checkable within this process (shard
	// mode relies on the launcher's same-factory-same-seed discipline and
	// the rendezvous trajectory digests).
	for s := 0; s < e.S && !cfg.Sharded(); s++ {
		for k := 1; k < e.K; k++ {
			if !autograd.ParamsEqual(e.rts[k][s].params, e.rts[0][s].params) {
				return nil, fmt.Errorf("pipeline: worker %d stage %d parameters differ from worker 0 (factory must build identical replicas)", k, s)
			}
		}
	}

	if cfg.Sharded() {
		e.params = e.owned[0].params
	} else {
		for s := 0; s < e.S; s++ {
			e.params = append(e.params, e.rts[0][s].params...)
		}
	}

	e.loader = data.NewLoader(cfg.DatasetN, cfg.GlobalBatch, LoaderRNG(cfg.Seed))
	e.loader.DropLast = cfg.DropLast

	// Gradient rows, per-replica aggregates, and stage-group rings, for the
	// locally-hosted cells only: each stage-replica owns the rows of its
	// microbatch range, and the ring sums all M rows across the K replicas.
	e.gbuf = make([][][]float64, e.S)
	e.agg = make([][][]float64, e.S)
	e.rings = make([]*Ring, e.S)
	for _, rt := range e.owned {
		s := rt.s
		if e.gbuf[s] == nil {
			e.gbuf[s] = make([][]float64, e.M)
			e.agg[s] = make([][]float64, e.K)
		}
		for m := rt.k * e.M / e.K; m < (rt.k+1)*e.M/e.K; m++ {
			e.gbuf[s][m] = e.buffers.Get(e.flatLen[s]) //mlperfvet:owns — engine state, released in Close
		}
		e.agg[s][rt.k] = e.buffers.Get(e.flatLen[s]) //mlperfvet:owns — engine state, released in Close
	}
	if cfg.Sharded() {
		rt := e.owned[0]
		// The stage-group ring runs over a sub-view of the process mesh:
		// member k of stage s's ring is grid rank k·S + s. Ring streams and
		// boundary streams use disjoint rank pairs, so they share the mesh.
		members := make([]int, e.K)
		for k := range members {
			members[k] = k*e.S + rt.s
		}
		eps := make([]transport.Mesh, e.K)
		eps[rt.k] = transport.Sub(cfg.Mesh, members)
		e.rings[rt.s] = NewRingOver(eps, cfg.Chunks, e.flatLen[rt.s], e.buffers)
	} else {
		for s := 0; s < e.S; s++ {
			e.rings[s] = NewRing(e.K, cfg.Chunks, e.flatLen[s], e.buffers)
		}
	}
	e.losses = make([]float64, e.M)
	e.shards = make([][]int, e.M)

	// Boundary endpoints. In-process mode builds a private S·K-rank fabric
	// (rank = k·S + s, the same grid layout the multi-process launcher
	// uses); shard mode plugs the injected process mesh straight in.
	if e.S > 1 {
		if cfg.Sharded() {
			e.owned[0].mesh = cfg.Mesh
		} else {
			fab := transport.NewLocalFabric(e.S*e.K, e.buffers)
			for _, rt := range e.owned {
				rt.mesh = fab.Endpoint(rt.rank)
			}
			e.ownMesh = true
		}
	}

	// Persistent runtime goroutines (spawning per step would put S·K
	// goroutine launches on the hot path). A single owned cell — the fully
	// serial S=K=1 shape, or shard mode — runs inline in Step instead.
	if len(e.owned) > 1 {
		for _, rt := range e.owned {
			rt.startCh = make(chan struct{}, 1)
			go func(rt *runtime) {
				for range rt.startCh {
					if err := e.runStage(rt); err != nil {
						e.fail(err)
					}
					e.stepWG.Done()
				}
			}(rt)
		}
	}
	return e, nil
}

// Close stops the persistent stage goroutines and returns the engine's
// buffers (gradient rows, aggregates, ring chunks, tape working sets) to
// its arena. An injected shard-mode Mesh is NOT closed — its lifecycle
// belongs to the launcher. Idempotent; the engine must not be stepped
// afterwards.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, rt := range e.owned {
		if rt.startCh != nil {
			close(rt.startCh)
		}
	}
	for s := 0; s < e.S; s++ {
		for _, buf := range e.gbuf[s] {
			if buf != nil {
				e.buffers.Put(buf)
			}
		}
		for _, buf := range e.agg[s] {
			if buf != nil {
				e.buffers.Put(buf)
			}
		}
		if e.rings[s] != nil {
			e.rings[s].Close()
		}
	}
	e.gbuf, e.agg = nil, nil
	for _, rt := range e.owned {
		if e.ownMesh && rt.mesh != nil {
			rt.mesh.Close()
		}
		for _, tape := range rt.tapes {
			tape.ReleaseBuffers()
		}
		rt.local.Flush()
	}
}

// Stages returns S. Workers returns K. Microbatches returns M.
func (e *Engine) Stages() int       { return e.S }
func (e *Engine) Workers() int      { return e.K }
func (e *Engine) Microbatches() int { return e.M }

// Params returns worker 0's full parameter list (the concatenation of its
// stage shards in stage order) — or, in shard mode, the locally-hosted
// stage's shard. The slice is built once and shared: callers must not
// modify it.
func (e *Engine) Params() []*autograd.Param { return e.params }

// FlatSize returns the total flattened gradient length across stages (the
// locally-hosted stage's length in shard mode).
func (e *Engine) FlatSize() int {
	n := 0
	for _, l := range e.flatLen {
		n += l
	}
	return n
}

// Steps returns the number of optimizer steps taken.
func (e *Engine) Steps() int { return e.step }

// Epoch returns the number of completed training epochs.
func (e *Engine) Epoch() int { return e.epoch }

// StepsPerEpoch returns the engine loader's steps per epoch.
func (e *Engine) StepsPerEpoch() int { return e.loader.StepsPerEpoch() }

// SetLRSchedule installs (or replaces) the learning-rate schedule applied
// to every stage optimizer before each update.
func (e *Engine) SetLRSchedule(s opt.Schedule) { e.cfg.LR = s }

// interleaved reports whether each runtime alternates forwards with
// backwards: 1F1B, and every schedule at S = 1, where a microbatch has no
// downstream stage to wait on. Whole models (OneStage) need this order,
// since MicrobatchLoss may reuse the model's batch buffers.
func (e *Engine) interleaved() bool { return e.cfg.Schedule == OneFOneB || e.S == 1 }

// liveSlots is the number of microbatches stage s holds between forward
// and backward at once, and so its tape count: S−s under an interleaved
// schedule (its warmup plus one), every local microbatch under GPipe.
func (e *Engine) liveSlots(s int) int {
	if e.interleaved() {
		return min(e.mLocal, e.S-s)
	}
	return e.mLocal
}

// Stats returns cumulative activity counters.
func (e *Engine) Stats() Stats {
	st := e.stats
	for _, rt := range e.owned {
		st.ActivationSends += rt.sends
		st.ActivationBytes += rt.bytes
	}
	return st
}

// Err returns the first failure recorded by a step — a peer death or
// transport error, typically a *transport.PeerError — or nil. Once set,
// further Steps are refused (they return 0 immediately).
func (e *Engine) Err() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

func (e *Engine) fail(err error) {
	e.failMu.Lock()
	if e.failErr == nil {
		e.failErr = err
	}
	e.failMu.Unlock()
}

// abort withdraws a failed runtime from the grid: its boundary-mesh rank
// and its stage-group ring membership are marked down, so every runtime
// blocked on it fails fast and the failure cascades across the whole grid
// (boundary neighbors first, then their rings, and so on) instead of
// deadlocking the step barrier.
func (e *Engine) abort(rt *runtime, err error) {
	if rt.mesh != nil {
		rt.mesh.Fail(rt.mesh.Rank(), err)
	}
	if e.rings[rt.s] != nil {
		e.rings[rt.s].Abort(rt.k, err)
	}
}

// InSync reports whether all locally-hosted stage replicas hold
// bit-identical parameters across workers (the hybrid DP invariant;
// trivially true in shard mode).
func (e *Engine) InSync() bool {
	if e.cfg.Sharded() {
		return true
	}
	for s := 0; s < e.S; s++ {
		for k := 1; k < e.K; k++ {
			if !autograd.ParamsEqual(e.rts[k][s].params, e.rts[0][s].params) {
				return false
			}
		}
	}
	return true
}

// StepNext draws the next global minibatch from the engine's loader and
// executes one pipelined step, returning the global mean loss.
func (e *Engine) StepNext() float64 {
	idx, _ := e.loader.Next()
	return e.Step(idx)
}

// TrainEpoch runs one full pass over the training data and returns the
// mean per-step loss. A step failure (see Err) ends the epoch early.
func (e *Engine) TrainEpoch() float64 {
	steps := e.loader.StepsPerEpoch()
	total := 0.0
	for i := 0; i < steps; i++ {
		total += e.StepNext()
		if e.Err() != nil {
			break
		}
	}
	e.epoch++
	return total / float64(steps)
}

// Step executes one pipelined (and, at K > 1, hybrid data-parallel)
// training step over the given global minibatch indices and returns the
// global mean loss (microbatch-size-weighted, equal to the mean over all
// examples). Ragged batches are supported: microbatches left empty by a
// short final batch are skipped symmetrically by every stage. In shard mode
// every process must call Step with the identical index set (the seeded
// loaders guarantee this for StepNext), and the return value is only the
// LOCAL loss contribution — nonzero only at last-stage cells. After a
// failure (Err non-nil) Step returns 0 without stepping.
func (e *Engine) Step(idx []int) float64 {
	if e.Err() != nil {
		return 0
	}
	start := e.clock.Now()
	for m := range e.shards {
		e.shards[m] = data.Shard(idx, m, e.M)
	}
	e.invB = 1 / float64(len(idx))
	for m := range e.losses {
		e.losses[m] = 0
	}

	if len(e.owned) == 1 {
		// The serial S=K=1 shape and shard mode both host one cell: run it
		// inline (in shard mode the other cells are other OS processes
		// rendezvousing inside the boundary/ring exchanges).
		if err := e.runStage(e.owned[0]); err != nil {
			e.fail(err)
		}
	} else {
		// Wake every (stage, worker) runtime and wait for the step
		// barrier. The channel sends happen-before each runtime's
		// iteration (shard/invB visibility); the WaitGroup orders runtime
		// writes before the loss reduction below.
		e.stepWG.Add(len(e.owned))
		for _, rt := range e.owned {
			rt.startCh <- struct{}{}
		}
		e.stepWG.Wait()
	}
	if err := e.Err(); err != nil {
		// The step died mid-exchange: parameters may be mid-update at some
		// cells, so the engine stays failed rather than pretending the
		// step completed.
		return 0
	}
	if e.K > 1 {
		for s := 0; s < e.S; s++ {
			if e.rings[s] != nil {
				e.stats.RingMessages += e.rings[s].RoundMessages()
				e.stats.RingBytes += e.rings[s].RoundBytes()
			}
		}
	}

	e.step++
	e.stats.Steps++
	e.stats.StepTime += e.clock.Now() - start

	// Fixed ascending-microbatch loss reduction, schedule-invariant.
	loss := 0.0
	for m := 0; m < e.M; m++ {
		loss += e.losses[m]
	}
	return loss
}

// runStage is one runtime's contribution to a step: the microbatch
// schedule over its owned slots, then the stage group's ring all-reduce
// and the local optimizer update. A transport failure aborts the runtime's
// grid membership (cascading to every other cell) and surfaces as the
// returned error.
func (e *Engine) runStage(rt *runtime) (err error) {
	defer func() {
		if err != nil {
			e.abort(rt, err)
		}
	}()
	if rt.mp != nil {
		// Round the live weights to the compute format for the whole step
		// (every microbatch sees the same rounded weights, as in the serial
		// trainer) and seed each backward with the loss scale.
		rt.mp.BeginStep()
		rt.scale = rt.mp.Scale()
	}
	mL := e.mLocal
	if e.interleaved() {
		warm := e.S - 1 - rt.s
		if warm > mL {
			warm = mL
		}
		for j := 0; j < warm; j++ {
			if err := e.forward(rt, j); err != nil {
				return err
			}
		}
		for j := warm; j < mL; j++ {
			if err := e.forward(rt, j); err != nil {
				return err
			}
			if err := e.backward(rt, j-warm); err != nil {
				return err
			}
		}
		for j := mL - warm; j < mL; j++ {
			if err := e.backward(rt, j); err != nil {
				return err
			}
		}
	} else { // GPipe fill-drain
		for j := 0; j < mL; j++ {
			if err := e.forward(rt, j); err != nil {
				return err
			}
		}
		for j := mL - 1; j >= 0; j-- {
			if err := e.backward(rt, j); err != nil {
				return err
			}
		}
	}

	// Hybrid DP leg: sum all M gradient rows of this stage's shard in
	// ascending microbatch order across the K replicas, then apply the
	// identical aggregated update on every replica.
	mlo, mhi := rt.k*e.M/e.K, (rt.k+1)*e.M/e.K
	agg := e.agg[rt.s][rt.k]
	if err := e.rings[rt.s].AllReduce(rt.k, e.gbuf[rt.s], mlo, mhi, agg); err != nil {
		return err
	}
	autograd.ScatterGrads(agg, rt.params)
	opt.ApplySchedule(rt.rep.Opt, e.cfg.LR, e.step)
	if rt.mp != nil {
		// Apply restores the float64 masters, checks the all-reduced
		// (scaled) gradient for overflow, and unscales before stepping.
		// Every replica sees the identical aggregated gradient, so every
		// replica makes the identical skip/backoff/growth decision.
		rt.mp.Apply(rt.rep.Opt)
	} else {
		rt.rep.Opt.Step()
	}
	return nil
}

// sendBoundary frames a tensor list and sends it to the adjacent-stage
// rank: [slot, ntensors, {rank, dims..., data...}...] for forwards (the
// receiver rebuilds shapes), [slot, concat data] for backwards (the
// receiver knows the shapes — they are its own outputs'). All values are
// float64; the integer fields are exact below 2^53.
func (rt *runtime) sendBoundary(to int, stream uint32, j int, tensors []*tensor.Tensor, withShapes bool) error {
	f := rt.enc[:0]
	f = append(f, float64(j))
	if withShapes {
		f = append(f, float64(len(tensors)))
	}
	for _, t := range tensors {
		if withShapes {
			f = append(f, float64(len(t.Shape)))
			for _, d := range t.Shape {
				f = append(f, float64(d))
			}
		}
		f = append(f, t.Data...)
		rt.bytes += t.Size() * 8
	}
	rt.enc = f
	rt.sends++
	return rt.mesh.Send(to, stream, f)
}

// recvFrame receives one boundary frame from the adjacent-stage rank into
// the runtime's scratch and validates its slot index.
func (rt *runtime) recvFrame(from int, stream uint32, j int) ([]float64, error) {
	f, err := rt.mesh.Recv(from, stream, rt.rcv)
	if err != nil {
		return nil, err
	}
	rt.rcv = f // keep the (possibly grown) buffer for reuse
	if len(f) < 1 || int(f[0]) != j {
		return nil, fmt.Errorf("pipeline: stage %d worker %d expected slot %d on stream %d, got frame %v: %w",
			rt.s, rt.k, j, stream, f[:min(len(f), 2)], transport.ErrBadFrame)
	}
	return f[1:], nil
}

// forward runs the stage's forward pass for local slot j, receiving the
// upstream boundary (stages > 0) and publishing this stage's boundary
// downstream (stages < S−1).
func (e *Engine) forward(rt *runtime, j int) error {
	m := rt.k*e.M/e.K + j
	shard := e.shards[m]
	if len(shard) == 0 {
		// Skipped symmetrically by every stage; this stage still owns the
		// microbatch's gradient row, which must read as zero.
		row := e.gbuf[rt.s][m]
		for i := range row {
			row[i] = 0
		}
		return nil
	}
	tape := rt.tapes[j%len(rt.tapes)]
	tape.Reset()
	MicroshardRNGInto(&rt.rng, e.cfg.Seed, e.step, m)

	var in []*autograd.Var
	if rt.s > 0 {
		payload, err := rt.recvFrame(rt.rank-1, streamFwd, j)
		if err != nil {
			return err
		}
		// Decode [ntensors, {rank, dims..., data...}...] into the slot's
		// persistent tensors (reallocated only on shape change), then wrap
		// each as a differentiable leaf.
		if len(payload) < 1 {
			return fmt.Errorf("pipeline: stage %d worker %d slot %d: truncated forward frame: %w", rt.s, rt.k, j, transport.ErrBadFrame)
		}
		nt := int(payload[0])
		payload = payload[1:]
		vals := rt.rvals[j]
		if cap(vals) < nt {
			vals = make([]*tensor.Tensor, nt)
		}
		vals = vals[:nt]
		in = rt.ins[j][:0]
		for i := 0; i < nt; i++ {
			if len(payload) < 1 {
				return fmt.Errorf("pipeline: stage %d worker %d slot %d: truncated forward frame: %w", rt.s, rt.k, j, transport.ErrBadFrame)
			}
			nd := int(payload[0])
			if len(payload) < 1+nd {
				return fmt.Errorf("pipeline: stage %d worker %d slot %d: truncated forward frame: %w", rt.s, rt.k, j, transport.ErrBadFrame)
			}
			n := 1
			sameShape := vals[i] != nil && len(vals[i].Shape) == nd
			for d := 0; d < nd; d++ {
				dim := int(payload[1+d])
				n *= dim
				sameShape = sameShape && vals[i].Shape[d] == dim
			}
			if !sameShape {
				// Shape change (first use, ragged final batch): rebuild the
				// slot's persistent tensor. Off the warm path by design.
				shape := make([]int, nd)
				for d := range shape {
					shape[d] = int(payload[1+d])
				}
				vals[i] = tensor.New(shape...)
			}
			payload = payload[1+nd:]
			if len(payload) < n {
				return fmt.Errorf("pipeline: stage %d worker %d slot %d: truncated forward frame: %w", rt.s, rt.k, j, transport.ErrBadFrame)
			}
			copy(vals[i].Data, payload[:n])
			payload = payload[n:]
			in = append(in, tape.LeafOf(vals[i]))
		}
		if len(payload) != 0 {
			return fmt.Errorf("pipeline: stage %d worker %d slot %d: %d trailing elements in forward frame: %w", rt.s, rt.k, j, len(payload), transport.ErrBadFrame)
		}
		rt.rvals[j] = vals
		rt.ins[j] = in
	}

	outs := rt.rep.Stage.Forward(tape, j, shard, &rt.rng, in)
	rt.outs[j] = outs

	if rt.s < e.S-1 {
		vals := rt.tvals[:0]
		for _, o := range outs {
			vals = append(vals, o.Value)
		}
		rt.tvals = vals
		return rt.sendBoundary(rt.rank+1, streamFwd, j, vals, true)
	}
	return nil
}

// backward runs the stage's backward pass for local slot j: seed the
// output gradients (from downstream, or the unit loss seed on the last
// stage), replay the slot's tape, send the input-boundary gradients
// upstream, and flatten this microbatch's parameter gradient into its
// reduction row. Seeding strictly before replay preserves the serial
// elementwise accumulation order for boundaries that are both forwarded
// and consumed locally (e.g. the Transformer's attention memory).
func (e *Engine) backward(rt *runtime, j int) error {
	m := rt.k*e.M/e.K + j
	shard := e.shards[m]
	if len(shard) == 0 {
		return nil // row zeroed at forward time
	}
	tape := rt.tapes[j%len(rt.tapes)]
	outs := rt.outs[j]
	for _, p := range rt.params {
		p.ZeroGrad()
	}

	wgt := float64(len(shard)) * e.invB
	if rt.s == e.S-1 {
		loss := outs[0]
		e.losses[m] = loss.Scalar() * wgt
		tape.BackwardScaled(loss, rt.scale)
	} else {
		payload, err := rt.recvFrame(rt.rank+1, streamBwd, j)
		if err != nil {
			return err
		}
		// The frame is the concatenated gradients of this stage's outputs,
		// in output order (the downstream stage's input-leaf order).
		// Elementwise add in index order — the same accumulation the
		// in-process pointer handoff performed.
		for _, o := range outs {
			g := o.Grad.Data
			if len(payload) < len(g) {
				return fmt.Errorf("pipeline: stage %d worker %d slot %d: truncated backward frame: %w", rt.s, rt.k, j, transport.ErrBadFrame)
			}
			for i := range g {
				g[i] += payload[i]
			}
			payload = payload[len(g):]
		}
		if len(payload) != 0 {
			return fmt.Errorf("pipeline: stage %d worker %d slot %d: %d trailing elements in backward frame: %w", rt.s, rt.k, j, len(payload), transport.ErrBadFrame)
		}
		tape.BackwardSeeded()
	}

	if rt.s > 0 {
		// Publish the input-leaf gradients upstream (shapes implied: they
		// are the upstream stage's output shapes).
		f := rt.enc[:0]
		f = append(f, float64(j))
		for _, v := range rt.ins[j] {
			f = append(f, v.Grad.Data...)
			rt.bytes += v.Grad.Size() * 8
		}
		rt.enc = f
		rt.sends++
		if err := rt.mesh.Send(rt.rank-1, streamBwd, f); err != nil {
			return err
		}
	}

	autograd.FlattenGradsScaled(e.gbuf[rt.s][m], rt.params, wgt)
	return nil
}
