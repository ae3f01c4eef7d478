package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
)

// endToEndMetrics are the gated metrics of an untraced run, in output
// order; every workload reports all of them.
var endToEndMetrics = []struct{ name, unit string }{
	{"cpu_s", "s"},
	{"epochs_to_target", "epochs"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// setupProbes is how many fresh processes time the workload's set-up; the
// median of their CPU times is setup_s.
const setupProbes = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	clk := clock.NewReal()
	fs := flag.NewFlagSet("ttbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "resnet_serial, transformer_pp2, ncf_ckpt_serve or ncf_dp2_tcp")
	seed := fs.Uint64("seed", 1, "input seed: orders the training seeds and drives the serving inputs")
	seconds := fs.Int("seconds", 15, "measurement budget; whole passes over the training seeds run while they fit in it")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 runs the traced pass for the per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for checkpoints and profiles")
	probe := fs.Bool("setup-probe", false, "set the workload up in this process, print its CPU and wall time, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *probe {
		if err := w.probe(*seed); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "setup %s %s\n", strconv.FormatFloat(cpuTime().Seconds(), 'g', -1, 64),
			strconv.FormatFloat(clk.Now().Seconds(), 'g', -1, 64))
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "need --seconds >= 1 and --trace 0 or 1")
		return 2
	}

	dir := filepath.Join(*scratch, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	env := captureEnvironment()
	if err := w.setUp(*seed); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var res *result
	if *trace == 1 {
		res, err = traced(w, *seed, dir)
	} else {
		res, err = measure(w, *name, *seed, time.Duration(*seconds)*time.Second, dir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *name, err)
		return 1
	}
	env.finish()
	res.write(stdout, env)
	return 0
}

// rotate returns the training seeds starting at position inputSeed mod n.
func rotate(seeds []uint64, inputSeed uint64) []uint64 {
	k := int(inputSeed % uint64(len(seeds)))
	return append(append([]uint64(nil), seeds[k:]...), seeds[:k]...)
}

// measure runs whole passes over the workload's training seeds while the
// next pass is expected to end within budget (at least one pass), then
// times the set-up in fresh processes, and reports the end-to-end metrics.
func measure(w workload, name string, inputSeed uint64, budget time.Duration, dir string) (*result, error) {
	clk := clock.NewReal()
	var outs []*outcome
	var pass time.Duration
	for len(outs) == 0 || clk.Now()+pass <= budget {
		start := clk.Now()
		for _, s := range rotate(w.seeds(), inputSeed) {
			// Start every repetition from a collected heap returned to the
			// OS, so its peak resident memory is its own.
			debug.FreeOSMemory()
			resetPeakRSS()
			o, err := w.rep(s, passOpts{scratch: dir})
			if err != nil {
				return nil, err
			}
			o.peakRSS = peakRSSMB()
			outs = append(outs, o)
		}
		pass = clk.Now() - start
	}
	setupCPU, setupWall, err := probeSetups(name, inputSeed)
	if err != nil {
		return nil, err
	}

	res := &result{}
	var ttt, epochs, rate, cpuRate, cpu, rss, serveP50, offline, stepMS []float64
	for _, o := range outs {
		res.merge(o)
		ttt = append(ttt, o.ttt.Seconds())
		epochs = append(epochs, float64(o.epochs))
		rate = append(rate, float64(o.samples)/o.train.Seconds())
		cpuRate = append(cpuRate, float64(o.samples)/o.trainCPU.Seconds())
		cpu = append(cpu, o.cpu.Seconds())
		rss = append(rss, o.peakRSS)
		if o.offlineQPS > 0 {
			serveP50 = append(serveP50, ms(o.serverP50))
			offline = append(offline, o.offlineQPS)
		}
		for _, d := range o.stepLat {
			stepMS = append(stepMS, ms(d))
		}
	}
	v := map[string]float64{
		"cpu_s":            median(cpu),
		"epochs_to_target": median(epochs),
		"peak_rss_mb":      median(rss),
		"setup_s":          median(setupCPU),
	}
	for _, m := range endToEndMetrics {
		res.add(m.name, v[m.name], m.unit)
	}

	// Wall-clock times move with the CPU time the hypervisor steals (printed
	// with the environment); they and the training loop's throughput per
	// CPU second are reported beside the gated metrics, whose one CPU-time
	// measure of training is cpu_s.
	res.addExtra("ttt_s", median(ttt), "s")
	res.addExtra("train_samples_per_s", median(rate), "1/s")
	res.addExtra("train_samples_per_cpu_s", median(cpuRate), "1/s")
	res.addExtra("setup_wall_s", median(setupWall), "s")
	res.addExtra("repetitions", float64(len(outs)), "count")
	if len(stepMS) > 0 {
		res.addExtra("step_ms_p50", median(stepMS), "ms")
		res.addExtra("step_ms_p99", quantile(stepMS, 0.99), "ms")
		res.addExtra("steps_timed", float64(len(stepMS)), "count")
	}
	if len(offline) > 0 {
		res.addExtra("serve_p50_ms", median(serveP50), "ms")
		res.addExtra("serve_offline_qps", median(offline), "1/s")
	}
	return res, nil
}

// probeSetups times the workload's set-up in setupProbes fresh processes of
// this binary, one after another, so every sample pays the same one-time
// costs (dataset generation) a real run pays. It returns each probe's CPU
// time (user+system) and wall time from process start to ready.
func probeSetups(name string, inputSeed uint64) (cpu, wall []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(inputSeed, 10), "--setup-probe")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("setup probe: %w", err)
		}
		c, w, err := parseProbe(stdout)
		if err != nil {
			return nil, nil, err
		}
		cpu, wall = append(cpu, c), append(wall, w)
	}
	return cpu, wall, nil
}

func parseProbe(stdout []byte) (cpu, wall float64, err error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[0] != "setup" {
			continue
		}
		if cpu, err = strconv.ParseFloat(f[1], 64); err == nil {
			wall, err = strconv.ParseFloat(f[2], 64)
		}
		return cpu, wall, err
	}
	return 0, 0, fmt.Errorf("setup probe printed no setup line: %q", stdout)
}
