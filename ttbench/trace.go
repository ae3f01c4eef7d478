package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/models"
	"repro/internal/serve"
)

// layerMetrics are the per-layer metrics of a traced run, in output order.
// Every traced run reports all of them; a layer the workload does not load
// reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"core.train_epoch_ms", "ms"},
	{"core.eval_ms", "ms"},
	{"core.eval_share", "share"},
	{"datasets.gen_ms", "ms"},
	{"models.build_ms", "ms"},
	{"ckpt.capture_ms", "ms"},
	{"ckpt.write_ms", "ms"},
	{"ckpt.bytes", "bytes"},
	{"ckpt.stall_share", "share"},
	{"serve.infer_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.p50_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.max_qps", "1/s"},
	{"serve.offline_qps", "1/s"},
	{"pipeline.step_ms", "ms"},
	{"pipeline.activation_sends_per_step", "count"},
	{"pipeline.activation_mb_per_step", "MB"},
	{"pipeline.bubble_analytic", "share"},
	{"transport.send_ms_per_step", "ms"},
	{"transport.recv_wait_ms_per_step", "ms"},
	{"transport.frames_per_step", "count"},
	{"transport.bytes_per_step", "bytes"},
	{"dist.compute_ms_per_step", "ms"},
	{"dist.step_ms_p50", "ms"},
	{"dist.step_ms_p99", "ms"},
	{"runtime.alloc_mb_per_ksample", "MB"},
	{"runtime.mallocs_per_ksample", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"cpu.tensor", "share"},
	{"cpu.autograd", "share"},
	{"cpu.nn", "share"},
	{"cpu.models", "share"},
	{"cpu.opt", "share"},
	{"cpu.data", "share"},
	{"cpu.metrics", "share"},
	{"cpu.dist", "share"},
	{"cpu.pipeline", "share"},
	{"cpu.transport", "share"},
	{"cpu.ckpt", "share"},
	{"cpu.serve", "share"},
	{"cpu.gc_alloc", "share"},
	{"cpu.syscall", "share"},
	{"cpu.other", "share"},
	{"trace.overhead", "ratio"},
}

// Serving capacity probe: the highest Poisson rate whose p99 latency stays
// within maxQPSSLO, bisected over [maxQPSLo, maxQPSHi].
const (
	maxQPSSLO     = 20 * time.Millisecond
	maxQPSLo      = 200
	maxQPSHi      = 16000
	maxQPSProbes  = 6
	maxQPSQueries = 400
)

// traced runs the run's first training seed twice, untraced and then
// traced (timing wrappers, engine statistics, heap statistics and a CPU
// profile), checks that both passes produced the same epochs, quality,
// parameters, predictions and digests, and reports the per-layer metrics.
func traced(w workload, inputSeed uint64, dir string) (*result, error) {
	seed := rotate(w.seeds(), inputSeed)[0]
	v := map[string]float64{}

	clk := clock.NewReal()
	start := clk.Now()
	for _, d := range w.datasets() {
		generate(d)
	}
	v["datasets.gen_ms"] = ms(clk.Now() - start)

	runtime.GC()
	plain, err := w.rep(seed, passOpts{scratch: dir})
	if err != nil {
		return nil, err
	}
	profile := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	var profErr error
	tr, err := w.rep(seed, passOpts{scratch: dir, trace: true,
		begin: func() {
			runtime.GC()
			runtime.ReadMemStats(&m0)
			profErr = pprof.StartCPUProfile(f)
		},
		end: func() {
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&m1)
		}})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = profErr
	}
	if err != nil {
		return nil, err
	}

	res := &result{}
	res.merge(plain)
	res.merge(tr)
	sameRun(res, plain, tr)

	v["trace.overhead"] = tr.ttt.Seconds() / plain.ttt.Seconds()
	v["models.build_ms"] = ms(tr.buildTime)
	v["core.train_epoch_ms"] = ms(tr.train) / float64(tr.epochs)
	v["core.eval_ms"] = ms(tr.eval) / float64(tr.evals)
	v["core.eval_share"] = tr.eval.Seconds() / (tr.train + tr.eval).Seconds()
	ksamples := float64(tr.samples) / 1000
	v["runtime.alloc_mb_per_ksample"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / ksamples
	v["runtime.mallocs_per_ksample"] = float64(m1.Mallocs-m0.Mallocs) / ksamples
	v["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	v["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	if cw, ok := w.(*coreWorkload); ok {
		if err := coreLayers(v, cw, seed, dir, plain, tr); err != nil {
			return nil, err
		}
	}
	if len(tr.meshes) > 0 {
		tcpLayers(v, res, plain, tr)
	}

	shares, err := cpuShares(profile)
	if err != nil {
		return nil, err
	}
	for _, s := range shares {
		v[s.name] += s.value
	}
	for _, m := range layerMetrics {
		res.add(m.name, v[m.name], m.unit)
	}
	res.addExtra("traced_seed", float64(seed), "seed")
	return res, nil
}

// sameRun checks that the traced pass reproduced the untraced one exactly.
func sameRun(res *result, plain, tr *outcome) {
	res.count(plain.epochs == tr.epochs, fmt.Sprintf("traced epochs %d != untraced %d", tr.epochs, plain.epochs))
	res.count(math.Float64bits(plain.quality) == math.Float64bits(tr.quality),
		fmt.Sprintf("traced quality %v != untraced %v", tr.quality, plain.quality))
	res.count(plain.digest == tr.digest, fmt.Sprintf("traced digest %s != untraced %s", tr.digest, plain.digest))
	same := len(plain.predictions) == len(tr.predictions)
	for i := 0; same && i < len(plain.predictions); i++ {
		same = math.Float64bits(plain.predictions[i]) == math.Float64bits(tr.predictions[i])
	}
	res.count(same, "traced predictions differ from untraced")
}

// coreLayers fills the checkpoint, serving and pipeline layers of a
// workload run through core.Run.
func coreLayers(v map[string]float64, w *coreWorkload, seed uint64, dir string, plain, tr *outcome) error {
	log := tr.log
	if log.captures > 0 {
		v["ckpt.capture_ms"] = ms(log.capture) / float64(log.captures)
		write, size, err := replayWrites(filepath.Join(dir, "replay"), log.states)
		if err != nil {
			return err
		}
		v["ckpt.write_ms"] = ms(write) / float64(len(log.states))
		v["ckpt.bytes"] = float64(size) / float64(len(log.states))
		noCkpt, err := w.rep(seed, passOpts{scratch: dir, noCkpt: true})
		if err != nil {
			return err
		}
		v["ckpt.stall_share"] = (plain.ttt - noCkpt.ttt).Seconds() / plain.ttt.Seconds()
	}
	if st := log.pipeStats; st != nil && st.Steps > 0 {
		steps := float64(st.Steps)
		v["pipeline.step_ms"] = ms(st.StepTime) / steps
		v["pipeline.activation_sends_per_step"] = float64(st.ActivationSends) / steps
		v["pipeline.activation_mb_per_step"] = float64(st.ActivationBytes) / 1e6 / steps
		v["pipeline.bubble_analytic"] = cluster.PipelineConfig{Stages: log.pipeStages, Microbatches: log.pipeMicrobats}.Bubble() - 1
	}
	if tr.serverInfer == nil {
		return nil
	}
	off := tr.offlineInfer
	v["serve.infer_ms"] = ms(off.busy) / float64(off.calls)
	v["serve.batch_size_mean"] = float64(off.samples) / float64(off.calls)
	// A query's wait is its latency minus the inference time of its batch;
	// rejected queries (NaN predictions) have no latency.
	var waits []float64
	k := 0
	for id, p := range tr.predictions {
		if math.IsNaN(p) {
			continue
		}
		waits = append(waits, ms(tr.serverLat[k]-tr.serverInfer.batchTime[id%len(tr.serverInfer.batchTime)]))
		k++
	}
	v["serve.wait_ms_p50"] = median(waits)
	v["serve.p50_ms"] = ms(plain.serverP50)
	v["serve.p99_ms"] = ms(plain.serverP99)
	v["serve.rejected"] = float64(plain.rejected)
	v["serve.offline_qps"] = plain.offlineQPS
	best, err := w.maxQPS(plain.snap)
	if err != nil {
		return err
	}
	v["serve.max_qps"] = best
	return nil
}

// replayWrites writes each captured training state through a fresh
// ckpt.Writer, as core.Run does, and returns the total write time and
// bytes written.
func replayWrites(dir string, states []*models.TrainState) (time.Duration, int64, error) {
	defer os.RemoveAll(dir)
	cw, err := ckpt.NewWriter(dir, 0)
	if err != nil {
		return 0, 0, err
	}
	clk := clock.NewReal()
	var total time.Duration
	var size int64
	for _, st := range states {
		start := clk.Now()
		path, _, err := cw.Write(st, 0)
		total += clk.Now() - start
		if err != nil {
			return 0, 0, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return 0, 0, err
		}
		size += fi.Size()
	}
	return total, size, nil
}

// maxQPS bisects the highest sustainable server-scenario rate for snap.
func (w *coreWorkload) maxQPS(snap *models.Snapshot) (float64, error) {
	pred, err := models.NewRecPredictor(w.recDS, models.DefaultNCFHParams(), snap, models.RecPoolNegatives, w.inputSeed)
	if err != nil {
		return 0, err
	}
	backend := serve.Backend{Name: "recommendation", Samples: pred.Samples(),
		NewContext: func() serve.InferContext { return pred.NewContext() }}
	best, _, err := serve.FindMaxQPS(backend, serve.Config{Queries: maxQPSQueries, Seed: w.inputSeed,
		SLO: maxQPSSLO, Workers: 1}, maxQPSLo, maxQPSHi, maxQPSProbes)
	return best, err
}

// tcpLayers fills the transport and ring layers from the traced pass's
// mesh wrappers, and checks the wrappers' frame and byte counts against the
// engine's own ring statistics.
func tcpLayers(v map[string]float64, res *result, plain, tr *outcome) {
	steps := float64(tr.steps)
	ranks := float64(len(tr.meshes))
	var send, recv time.Duration
	frames, bytes := 0, 0
	for _, m := range tr.meshes {
		send += m.send
		recv += m.recvWait
		frames += m.frames
		bytes += m.bytes
	}
	res.count(frames == tr.ring.RingMessages && bytes == tr.ring.RingBytes,
		fmt.Sprintf("mesh counted %d frames / %d bytes, dist.Stats %d / %d", frames, bytes, tr.ring.RingMessages, tr.ring.RingBytes))
	sendMS := ms(send) / ranks / steps
	recvMS := ms(recv) / ranks / steps
	v["transport.send_ms_per_step"] = sendMS
	v["transport.recv_wait_ms_per_step"] = recvMS
	v["transport.frames_per_step"] = float64(frames) / steps
	v["transport.bytes_per_step"] = float64(bytes) / steps
	var step time.Duration
	for _, d := range tr.stepLat {
		step += d
	}
	v["dist.compute_ms_per_step"] = ms(step)/float64(len(tr.stepLat)) - sendMS - recvMS
	var lat []float64
	for _, d := range plain.stepLat {
		lat = append(lat, ms(d))
	}
	v["dist.step_ms_p50"] = median(lat)
	v["dist.step_ms_p99"] = quantile(lat, 0.99)
}

// cpuBuckets maps the program's packages to cpu.* metrics by function-name
// prefix.
var cpuBuckets = []struct{ metric, prefix string }{
	{"cpu.tensor", "repro/internal/tensor."},
	{"cpu.autograd", "repro/internal/autograd."},
	{"cpu.nn", "repro/internal/nn."},
	{"cpu.models", "repro/internal/models."},
	{"cpu.opt", "repro/internal/opt."},
	{"cpu.data", "repro/internal/data."},
	{"cpu.data", "repro/internal/datasets."},
	{"cpu.metrics", "repro/internal/metrics."},
	{"cpu.dist", "repro/internal/dist."},
	{"cpu.pipeline", "repro/internal/pipeline."},
	{"cpu.transport", "repro/internal/transport."},
	{"cpu.ckpt", "repro/internal/ckpt."},
	{"cpu.serve", "repro/internal/serve."},
	{"cpu.syscall", "syscall."},
	{"cpu.syscall", "internal/runtime/syscall."},
	{"cpu.syscall", "internal/poll."},
	{"cpu.syscall", "runtime.futex"},
	{"cpu.syscall", "runtime.epollwait"},
	{"cpu.syscall", "runtime.usleep"},
}

// gcWords mark runtime functions that allocate or collect.
var gcWords = []string{"malloc", "gc", "GC", "mark", "sweep", "scan", "heap", "span", "mcache",
	"mcentral", "greyobject", "findObject", "newobject", "makeslice", "growslice", "wbBuf", "memclrNoHeapPointers"}

func cpuBucket(fn string) string {
	for _, b := range cpuBuckets {
		if strings.HasPrefix(fn, b.prefix) {
			return b.metric
		}
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, word := range gcWords {
			if strings.Contains(rest, word) {
				return "cpu.gc_alloc"
			}
		}
	}
	return "cpu.other"
}

// cpuShares summarises a CPU profile with the installed `go tool pprof`:
// the share of flat samples whose function falls in each bucket.
func cpuShares(profile string) ([]metric, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", profile)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat, total, err := parseTop(out)
	if err != nil {
		return nil, err
	}
	var shares []metric
	for i, fn := range flat.names {
		shares = append(shares, metric{name: cpuBucket(fn), value: flat.ms[i] / total, unit: "share"})
	}
	return shares, nil
}

type flatRows struct {
	names []string
	ms    []float64
}

// parseTop reads the rows of `pprof -top -unit=ms` output: flat time and
// function name per row.
func parseTop(out []byte) (flatRows, float64, error) {
	var rows flatRows
	total := 0.0
	header := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			return rows, 0, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		rows.names = append(rows.names, fields[5])
		rows.ms = append(rows.ms, ms(d))
		total += ms(d)
	}
	if total == 0 {
		return rows, 0, fmt.Errorf("pprof reported no CPU samples")
	}
	return rows, total, nil
}
