package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/transport"
)

// Serving load for ncf_ckpt_serve: a Poisson rate well below the one
// inference worker's saturation point, so the server-scenario latency
// measures batching and compute rather than a growing queue.
const (
	serverQPS     = 1000
	serverShare   = 2  // the server scenario issues one query per serverShare pool samples
	offlineFactor = 16 // offline queries per pool sample
)

// outcome is one repetition: one seed trained to its target (and, for
// ncf_ckpt_serve, served), with every output checked.
type outcome struct {
	seed      uint64
	ttt       time.Duration
	epochs    int
	quality   float64
	train     time.Duration // training-loop time, evaluation excluded
	trainCPU  time.Duration // process CPU time of the training loop
	eval      time.Duration
	evals     int
	steps     int // optimizer steps
	samples   int // loader samples trained
	cpu       time.Duration
	peakRSS   float64 // MiB, set by measure
	digest    string  // final parameters; both ranks' trajectories for TCP
	buildTime time.Duration

	attempted, failed int
	problems          []string

	// ncf_ckpt_serve
	serverP50, serverP99 time.Duration
	rejected             int
	offlineQPS           float64
	snap                 *models.Snapshot // the served parameters
	predictions          []float64        // server scenario, query-id order
	serverLat            []time.Duration
	serverInfer          *timedInfer // traced passes only
	offlineInfer         *timedInfer // traced passes only

	// ncf_dp2_tcp
	stepLat []time.Duration // rank 0's StepNext latencies
	meshes  []*timedMesh    // traced passes only
	ring    dist.Stats

	// traced passes of the core workloads
	log *epochLog
}

func (o *outcome) check(ok bool, ops int, format string, args ...any) {
	o.attempted += ops
	if !ok {
		o.failed += ops
		o.problems = append(o.problems, fmt.Sprintf("seed %d: ", o.seed)+fmt.Sprintf(format, args...))
	}
}

// passOpts selects how one repetition runs.
type passOpts struct {
	scratch   string
	trace     bool
	noCkpt    bool // ncf_ckpt_serve: train without checkpoints
	maxEpochs int  // 0 keeps the benchmark's own cap
	// begin and end, when set, are called around the repetition's measured
	// work (training, and serving for ncf_ckpt_serve), leaving out set-up
	// and the correctness replays.
	begin, end func()
}

func call(f func()) {
	if f != nil {
		f()
	}
}

// workload is one of the benchmark's four workloads.
type workload interface {
	// seeds are the fixed training seeds of one pass.
	seeds() []uint64
	// setUp prepares the process for repetitions (configuration, datasets).
	setUp(inputSeed uint64) error
	// probe performs every set-up step before the first timed step, from
	// scratch, for the setup_s measurement.
	probe(seed uint64) error
	// rep runs one repetition.
	rep(seed uint64, o passOpts) (*outcome, error)
	// datasets lists the generators the workload's set-up runs, in order.
	datasets() []string
}

func lookup(name string) (workload, error) {
	switch name {
	case "resnet_serial":
		return &coreWorkload{id: "image_classification", trainSeeds: []uint64{1, 2, 3},
			batchSize: models.DefaultImageHParams().Batch}, nil
	case "transformer_pp2":
		return &coreWorkload{id: "translation_transformer", trainSeeds: []uint64{1, 2, 3},
			cfg:       core.TrainConfig{Parallel: core.Parallel{PPStages: 2}},
			batchSize: models.DefaultTransformerHParams().Batch}, nil
	case "ncf_ckpt_serve":
		return &coreWorkload{id: "recommendation", trainSeeds: []uint64{1, 2, 3, 4, 5},
			checkpoint: true, serveIt: true, batchSize: models.DefaultNCFHParams().Batch}, nil
	case "ncf_dp2_tcp":
		return &tcpWorkload{trainSeeds: []uint64{1, 2, 3, 4}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want resnet_serial, transformer_pp2, ncf_ckpt_serve or ncf_dp2_tcp)", name)
}

// suiteDatasets are the datasets core.Configure and core.FindBenchmark
// generate on first use: the suite builds every benchmark's dataset.
var suiteDatasets = []string{"images", "detection", "translation", "recommendation"}

// generate runs the named public dataset generator with its default
// configuration.
func generate(name string) {
	switch name {
	case "images":
		datasets.GenerateImages(datasets.DefaultImageConfig())
	case "detection":
		datasets.GenerateDetection(datasets.DefaultDetConfig())
	case "translation":
		datasets.GenerateMT(datasets.DefaultMTConfig())
	case "recommendation":
		datasets.GenerateRec(datasets.DefaultRecConfig())
	}
}

// coreWorkload trains a suite benchmark through core.Configure and core.Run;
// with serveIt it serves each trained snapshot through serve.Run.
type coreWorkload struct {
	id         string
	cfg        core.TrainConfig
	trainSeeds []uint64
	batchSize  int
	checkpoint bool
	serveIt    bool

	bench     core.Benchmark
	recDS     *datasets.RecDataset
	inputSeed uint64
}

func (w *coreWorkload) seeds() []uint64 { return w.trainSeeds }

func (w *coreWorkload) datasets() []string {
	if w.serveIt { // plus the serving sample pool's
		return append(append([]string(nil), suiteDatasets...), "recommendation")
	}
	return suiteDatasets
}

func (w *coreWorkload) setUp(inputSeed uint64) error {
	b, err := core.Configure(core.V05, w.id, w.cfg)
	if err != nil {
		return err
	}
	w.bench, w.inputSeed = b, inputSeed
	if w.serveIt {
		w.recDS = datasets.GenerateRec(datasets.DefaultRecConfig())
	}
	return nil
}

func (w *coreWorkload) probe(seed uint64) error {
	if err := w.setUp(seed); err != nil {
		return err
	}
	m := w.bench.New(seed)
	if w.serveIt {
		ps, ok := m.(paramsLister)
		if !ok {
			return fmt.Errorf("%s workload exposes no parameters", w.id)
		}
		snap := models.TakeSnapshot(w.id, ps.Params())
		if _, err := models.NewRecPredictor(w.recDS, models.DefaultNCFHParams(), snap, models.RecPoolNegatives, seed); err != nil {
			return err
		}
	}
	if c, ok := m.(interface{ Close() }); ok {
		c.Close()
	}
	return nil
}

func (w *coreWorkload) rep(seed uint64, o passOpts) (*outcome, error) {
	log := &epochLog{clk: clock.NewReal(), keepStates: o.trace}
	var wrapErr error
	b := wrapBenchmark(w.bench, log, &wrapErr)
	cfg := core.RunConfig{Seed: seed, CaptureParams: true, MaxEpochs: o.maxEpochs}
	dir := filepath.Join(o.scratch, fmt.Sprintf("ckpt-%s-%d", w.id, seed))
	if w.checkpoint && !o.noCkpt {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Checkpoint = core.CheckpointConfig{Dir: dir}
	}

	call(o.begin)
	defer call(o.end)
	cpu0 := cpuTime()
	r := core.Run(b, cfg)
	out := &outcome{seed: seed, cpu: cpuTime() - cpu0, ttt: r.TimeToTrain, epochs: r.Epochs,
		quality: r.FinalQuality, train: log.train, trainCPU: log.trainCPU, eval: log.eval, evals: log.evals,
		steps: log.steps, samples: log.steps * w.batchSize, buildTime: r.ExcludedCompile}
	if wrapErr != nil {
		return nil, wrapErr
	}
	if o.trace {
		out.log = log
	}
	out.check(r.Err == nil && r.Converged, 1, "%s did not reach its target (epochs %d, quality %v, err %v)", w.id, r.Epochs, r.FinalQuality, r.Err)
	if r.FinalParams == nil {
		out.check(false, 1, "%s run captured no parameters", w.id)
		return out, nil
	}
	out.digest = r.FinalParams.Digest()

	if cfg.Checkpoint.Dir != "" {
		st, _, err := ckpt.Latest(dir, 0)
		ok := err == nil && st != nil && st.Params.Digest() == out.digest
		out.check(ok, 1, "newest checkpoint does not hold the final parameters (err %v)", err)
	}
	if w.serveIt {
		if err := w.serve(r.FinalParams, o, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// wrapBenchmark returns b with every workload it builds wrapped to log
// into log; a workload wrap cannot mirror is returned unwrapped and the
// error stored in wrapErr.
func wrapBenchmark(b core.Benchmark, log *epochLog, wrapErr *error) core.Benchmark {
	newWorkload := b.New
	b.New = func(seed uint64) models.Workload {
		m := newWorkload(seed)
		wrapped, err := wrap(m, log)
		if err != nil {
			*wrapErr = err
			return m
		}
		return wrapped
	}
	return b
}

// serve serves a trained snapshot in the server scenario and then offline,
// with one inference worker, and checks every prediction against a direct
// forward pass over the same samples.
func (w *coreWorkload) serve(snap *models.Snapshot, o passOpts, out *outcome) error {
	pred, err := models.NewRecPredictor(w.recDS, models.DefaultNCFHParams(), snap, models.RecPoolNegatives, w.inputSeed)
	if err != nil {
		return err
	}
	n := pred.Samples()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	want := make([]float64, n)
	pred.NewContext().InferBatch(all, want)

	var infers []*timedInfer
	backend := serve.Backend{Name: "recommendation", Samples: n, NewContext: func() serve.InferContext {
		ctx := pred.NewContext()
		if !o.trace {
			return ctx
		}
		t := &timedInfer{inner: ctx, clk: clock.NewReal(), batchTime: make([]time.Duration, n)}
		infers = append(infers, t)
		return t
	}}
	// The admission queue holds every query, so a host stall shows as
	// latency rather than as rejected queries.
	queries := n / serverShare
	srv, err := serve.Run(backend, serve.Config{Scenario: serve.Server, Queries: queries, Seed: w.inputSeed,
		TargetQPS: serverQPS, Workers: 1, QueueCap: queries})
	if err != nil {
		return err
	}
	checkServed(out, srv, want)
	off, err := serve.Run(backend, serve.Config{Scenario: serve.Offline, Queries: offlineFactor * n, Workers: 1})
	if err != nil {
		return err
	}
	checkServed(out, off, want)

	out.serverP50, out.serverP99, out.rejected = srv.P50, srv.P99, srv.Rejected
	out.offlineQPS, out.snap = off.AchievedQPS, snap
	out.predictions, out.serverLat = srv.Predictions, srv.Latencies
	if o.trace {
		out.serverInfer, out.offlineInfer = infers[0], infers[1]
	}
	return nil
}

// checkServed counts each query as one operation: it fails when it was
// rejected or its prediction differs in any bit from the direct forward
// pass.
func checkServed(out *outcome, rep serve.Report, want []float64) {
	out.check(rep.Completed+rep.Rejected == rep.Queries, 1, "%s: %d completed + %d rejected != %d queries",
		rep.Scenario, rep.Completed, rep.Rejected, rep.Queries)
	bad := 0
	for id, p := range rep.Predictions {
		if math.IsNaN(p) || math.Float64bits(p) != math.Float64bits(want[id%len(want)]) {
			bad++
		}
	}
	out.attempted += len(rep.Predictions)
	out.failed += bad
	if bad > 0 {
		out.problems = append(out.problems, fmt.Sprintf("seed %d: %s: %d of %d queries rejected or mispredicted",
			out.seed, rep.Scenario, bad, len(rep.Predictions)))
	}
}

// tcpWorkload trains recommendation with two data-parallel ranks, each a
// shard-mode engine from grid.Build, over one loopback TCP mesh in this
// process. Training runs epoch by epoch to the suite's quality target,
// evaluating rank 0's parameters after every epoch.
type tcpWorkload struct {
	trainSeeds []uint64

	target    float64
	maxEpochs int
	recDS     *datasets.RecDataset
}

const tcpBenchmark = "recommendation"

func (w *tcpWorkload) seeds() []uint64 { return w.trainSeeds }

// datasets: the suite's (for the target), grid.Build's own copy, and the
// evaluator's.
func (w *tcpWorkload) datasets() []string {
	return append(append([]string(nil), suiteDatasets...), tcpBenchmark, tcpBenchmark)
}

func (w *tcpWorkload) setUp(uint64) error {
	b, err := core.FindBenchmark(core.V05, tcpBenchmark)
	if err != nil {
		return err
	}
	w.target, w.maxEpochs = b.Target, b.MaxEpochs
	w.recDS = datasets.GenerateRec(datasets.DefaultRecConfig())
	return nil
}

func (w *tcpWorkload) spec(seed uint64) grid.Spec {
	return grid.Spec{Benchmark: tcpBenchmark, DP: 2, Seed: seed}
}

func (w *tcpWorkload) probe(seed uint64) error {
	if err := w.setUp(seed); err != nil {
		return err
	}
	models.NewRecommendation(w.recDS, models.DefaultNCFHParams(), seed)
	g, err := startGrid(w.spec(seed), false)
	if err != nil {
		return err
	}
	g.close()
	return nil
}

// tcpGrid is both ranks of one spec: their meshes and engines.
type tcpGrid struct {
	meshes  []*transport.TCPMesh
	timed   []*timedMesh
	engines []grid.Engine
	build   time.Duration
}

func (g *tcpGrid) close() {
	for _, e := range g.engines {
		e.Close()
	}
	for _, m := range g.meshes {
		m.Close()
	}
}

// startGrid dials a two-rank loopback mesh and builds each rank's engine on
// it; with trace each rank's mesh is wrapped in a timedMesh.
func startGrid(spec grid.Spec, trace bool) (*tcpGrid, error) {
	world := spec.World()
	lns := make([]net.Listener, world)
	addrs := make([]string, world)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nil, fmt.Errorf("mesh listen: %w", err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	g := &tcpGrid{meshes: make([]*transport.TCPMesh, world)}
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g.meshes[r], errs[r] = transport.DialTCPMesh(transport.TCPConfig{Rank: r, Addrs: addrs, Listener: lns[r]})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			for _, m := range g.meshes {
				if m != nil {
					m.Close()
				}
			}
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("dial mesh rank %d: %w", r, err)
		}
	}
	clk := clock.NewReal()
	start := clk.Now()
	for r := 0; r < world; r++ {
		var mesh transport.Mesh = g.meshes[r]
		if trace {
			t := &timedMesh{Mesh: mesh, clk: clk}
			g.timed = append(g.timed, t)
			mesh = t
		}
		eng, err := grid.Build(spec, mesh, r)
		if err != nil {
			g.close()
			return nil, err
		}
		g.engines = append(g.engines, eng)
	}
	g.build = clk.Now() - start
	return g, nil
}

func (w *tcpWorkload) rep(seed uint64, o passOpts) (*outcome, error) {
	spec := w.spec(seed)
	g, err := startGrid(spec, o.trace)
	if err != nil {
		return nil, err
	}
	defer g.close()
	hp := models.DefaultNCFHParams()
	evaluator := models.NewRecommendation(w.recDS, hp, seed)
	perEpoch := g.engines[0].(*dist.Engine).StepsPerEpoch()
	maxEpochs := w.maxEpochs
	if o.maxEpochs > 0 {
		maxEpochs = o.maxEpochs
	}

	out := &outcome{seed: seed, buildTime: g.build, meshes: g.timed}
	digests := []*grid.Digest{grid.NewDigest(), grid.NewDigest()}
	stepErrs := make([]error, len(g.engines))
	clk := clock.NewReal()
	call(o.begin)
	cpu0 := cpuTime()
	start := clk.Now()
	converged := false
	for epoch := 0; epoch < maxEpochs && !converged; epoch++ {
		t0, c0 := clk.Now(), cpuTime()
		var wg sync.WaitGroup
		for r, eng := range g.engines {
			wg.Add(1)
			go func(r int, eng grid.Engine) {
				defer wg.Done()
				for i := 0; i < perEpoch; i++ {
					s := clk.Now()
					eng.StepNext()
					d := clk.Now() - s
					if err := eng.Err(); err != nil {
						stepErrs[r] = err
						return
					}
					if r == 0 {
						out.stepLat = append(out.stepLat, d)
					}
					digests[r].Add(eng.Params())
				}
			}(r, eng)
		}
		wg.Wait()
		out.train += clk.Now() - t0
		out.trainCPU += cpuTime() - c0
		if stepErrs[0] != nil || stepErrs[1] != nil {
			break
		}
		t1 := clk.Now()
		if err := models.TakeSnapshot(tcpBenchmark, g.engines[0].Params()).Restore(evaluator.Params()); err != nil {
			call(o.end)
			return nil, err
		}
		out.quality = evaluator.Evaluate()
		out.eval += clk.Now() - t1
		out.evals++
		out.epochs = epoch + 1
		converged = out.quality >= w.target
	}
	out.ttt = clk.Now() - start
	out.cpu = cpuTime() - cpu0
	call(o.end)
	steps := g.engines[0].Steps()
	out.steps, out.samples = steps, steps*hp.Batch
	out.ring = g.engines[0].(*dist.Engine).Stats()

	out.check(stepErrs[0] == nil && stepErrs[1] == nil, steps, "TCP step failed: %v / %v", stepErrs[0], stepErrs[1])
	out.check(converged, 1, "did not reach HR@10 %v in %d epochs (quality %v)", w.target, out.epochs, out.quality)
	d0, d1 := digests[0].Sum(), digests[1].Sum()
	out.digest = d0 + "/" + d1
	out.check(d0 == d1, steps, "rank digests differ: %s vs %s", d0, d1)
	spec.Steps = steps
	ref, err := grid.Reference(spec)
	if err != nil {
		return nil, err
	}
	out.check(ref.Digests[0] == d0 && ref.Digests[1] == d1, steps,
		"TCP digests %s/%s differ from the in-process reference %s/%s", d0, d1, ref.Digests[0], ref.Digests[1])
	return out, nil
}
