package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named, unit-carrying value in a result. Results keep their
// metrics in a slice so every printout has a fixed order.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one benchmark process reports.
type result struct {
	attempted, failed int
	problems          []string
	metrics           []metric // the JSON metrics: end-to-end or per-layer
	extra             []metric // printed beside them, not part of the JSON
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) addExtra(name string, value float64, unit string) {
	r.extra = append(r.extra, metric{name, value, unit})
}

// count records one checked operation and whether it failed.
func (r *result) count(ok bool, problem string) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

// merge folds one repetition's operation counts into the result.
func (r *result) merge(o *outcome) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}

// write prints the human-readable table, the environment line and, last,
// the one-line JSON object.
func (r *result) write(w io.Writer, env environment) {
	for _, m := range append(append([]metric(nil), r.metrics...), r.extra...) {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", m.name, m.value, m.unit)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-36s %16.6g share (%d of %d operations)\n", "failed_share", share, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	fmt.Fprintln(w, env.String())

	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.failed == 0, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, jsonNumber(m.value), m.unit)
	}
	b.WriteString("}}")
	fmt.Fprintln(w, b.String())
}

// jsonNumber renders v with all its digits; JSON has no NaN or infinity, so
// those read 0 (no metric the benchmark defines can legitimately be either).
func jsonNumber(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// quantile returns the R-7 (linear interpolation) q-quantile of xs, 0 for
// an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak resident memory mark (VmHWM) of
// this process, so peakRSSMB measures from here on.
func resetPeakRSS() {
	// Without /proc the mark is not reset and peakRSSMB reads the
	// process's peak so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size in MiB since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment describes the machine a result was measured on, including
// how much CPU time the hypervisor stole while it ran.
type environment struct {
	cpuModel  string
	nproc     int
	maxProcs  int
	goVersion string
	commit    string
	steal0    []uint64
	stealPct  float64
}

func captureEnvironment() environment {
	return environment{
		cpuModel:  cpuModel(),
		nproc:     runtime.NumCPU(),
		maxProcs:  runtime.GOMAXPROCS(0),
		goVersion: runtime.Version(),
		commit:    commit("."),
		steal0:    cpuTicks(),
	}
}

// finish records the steal share of CPU ticks since captureEnvironment.
func (e *environment) finish() {
	t1 := cpuTicks()
	if len(e.steal0) < 8 || len(t1) < 8 {
		e.stealPct = -1
		return
	}
	var total uint64
	for i := 0; i < 8; i++ {
		total += t1[i] - e.steal0[i]
	}
	if total == 0 {
		return
	}
	e.stealPct = 100 * float64(t1[7]-e.steal0[7]) / float64(total)
}

func (e environment) String() string {
	return fmt.Sprintf("env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s steal_pct=%.1f",
		e.cpuModel, e.nproc, e.maxProcs, e.goVersion, e.commit, e.stealPct)
}

// cpuTicks reads the aggregate CPU tick counters (user nice system idle
// iowait irq softirq steal ...) from /proc/stat; nil when unavailable.
func cpuTicks() []uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var out []uint64
	for _, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from the .git directory under root,
// without running git; "unknown" outside a git checkout.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return shortHash(ref)
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return shortHash(strings.TrimSpace(string(id)))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return shortHash(id)
		}
	}
	return "unknown"
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
