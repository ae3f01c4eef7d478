GO ?= go

BENCH_SMOKE_OUT ?= bench-smoke.out

.PHONY: all ci check fmt vet staticcheck lint build test test-short race bench bench-smoke bench-kernels bench-gemm pp-smoke smoke-f32 multiproc-smoke serve-smoke chaos-smoke fuzz-smoke

all: check

# Everything CI runs, in the same order — reproduce any CI failure locally
# with exactly `make ci` (the workflow jobs call these same targets).
ci: check race multiproc-smoke chaos-smoke fuzz-smoke bench-smoke smoke-f32 serve-smoke

# The fast gate: formatting, static checks (incl. the repo's own analyzer
# suite), a full build, and the fast tests.
check: fmt vet staticcheck lint build test-short

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck runs when installed (CI installs the same pinned version:
# go install honnef.co/go/tools/cmd/staticcheck@2025.1.1).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

# The repo's own analyzer suite (internal/analysis, driven by
# cmd/mlperf-vet): determinism (no wall clock/global rand/FMA/unordered
# map ranges), arena acquire/release ownership, //mlperfvet:hotpath
# allocation-freedom, MLLOG compliance keys, and fork-join pool re-entry.
lint:
	$(GO) run ./cmd/mlperf-vet ./...

build:
	$(GO) build ./...

# Full suite, including the ~45s model-convergence tests.
test:
	$(GO) test ./...

# Fast suite (< 10s): convergence tests run at reduced epoch budgets.
test-short:
	$(GO) test -short ./...

# Race-detector pass over the fast suite: the engine's ring, the parallel pool,
# the run-set executor, and the arena are all concurrency-heavy.
race:
	$(GO) test -race -short ./...

# Multi-process training smoke under the race detector: the grid tests
# re-exec the test binary as real OS worker processes over loopback TCP and
# require bit-identity with the in-process fabric and the serial baseline,
# plus typed (not hung) detection of killed and hung workers. `make race`
# skips these (-short); this target runs exactly them, with a hard timeout
# so a transport hang fails fast instead of stalling CI.
multiproc-smoke:
	$(GO) test -race -run 'MultiProc' -timeout 300s -v ./internal/grid/

# Fault-tolerance smoke under the race detector: a multi-process loopback
# grid loses a worker to a seeded chaos-injected crash (internal/chaos),
# the supervisor respawns it from the newest complete checkpoint set
# (internal/ckpt), and the completed run must report trajectory digests
# bit-identical to a never-killed reference — plus the checkpoint/resume
# and crash-boundary sweeps in ckpt, core, dist (the one-stage engine's
# data-parallel tests) and pipeline.
chaos-smoke:
	$(GO) test -race -run 'TestSupervisedChaos|TestMultiProcResume' -timeout 300s -v ./internal/grid/
	$(GO) test -race -timeout 300s ./internal/ckpt/ ./internal/chaos/
	$(GO) test -race -run 'Resume|Checkpoint|Crash' -timeout 300s ./internal/core/ ./internal/dist/ ./internal/pipeline/

# Fuzz smoke over the one sealed-file decoder (internal/codec): random
# snapshot bytes, and random checkpoint bodies re-sealed so they reach the
# parser, must never panic, must allocate at most a constant multiple of
# the input, and must survive load∘save∘load unchanged. Plain `go test`
# runs only the seed corpus. Minimization is off: minimizing each new
# coverage input re-runs it under full coverage of the large models
# package and would spend the whole budget there.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime 15s -fuzzminimizetime 0 ./internal/models/
	$(GO) test -run '^$$' -fuzz '^FuzzCkptLoad$$' -fuzztime 15s -fuzzminimizetime 0 ./internal/ckpt/

# Every table/figure benchmark plus the kernel microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Compile-and-run-once smoke over every benchmark in the repo, then fail if
# any steady-state step benchmark (BenchmarkStepAllocs* for serial/DP,
# BenchmarkStepPipeline* for PP and hybrid DP×PP,
# BenchmarkStepTransformer{Serial,DP4,PP4}), GEMM kernel benchmark
# (BenchmarkGEMM*, incl. the naive references), warm serving-step
# benchmark (BenchmarkServe*), serial convolution benchmark
# (BenchmarkConv2D{Forward,Backward}Serial*; the parallel variants fork
# goroutines, which allocate) or warm Transformer greedy decode
# (BenchmarkTransformerGreedyDecode) reports a nonzero allocs/op — the
# allocation-free hot-path regression gate.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... > $(BENCH_SMOKE_OUT) || (cat $(BENCH_SMOKE_OUT); exit 1)
	@cat $(BENCH_SMOKE_OUT)
	@awk '/^Benchmark(Step(Allocs|Pipeline|Transformer)|GEMM|Serve|Conv2D(Forward|Backward)Serial|TransformerGreedyDecode)/ { if ($$(NF-1) != "0" || $$NF != "allocs/op") { print "FAIL: hot path allocates: " $$0; bad = 1 } } \
		END { if (bad) exit 1; print "bench-smoke: all BenchmarkStepAllocs*/BenchmarkStepPipeline*/BenchmarkStepTransformer*/BenchmarkGEMM*/BenchmarkServe*/BenchmarkConv2D{Forward,Backward}Serial*/BenchmarkTransformerGreedyDecode report 0 allocs/op" }' $(BENCH_SMOKE_OUT)

# Pipeline-only slice of bench-smoke: run just the pipeline step benchmarks
# and apply the same nonzero-alloc gate (fast local check for PP changes).
pp-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkStepPipeline' -benchtime 1x -benchmem . > $(BENCH_SMOKE_OUT) || (cat $(BENCH_SMOKE_OUT); exit 1)
	@cat $(BENCH_SMOKE_OUT)
	@awk '/^BenchmarkStepPipeline/ { if ($$(NF-1) != "0" || $$NF != "allocs/op") { print "FAIL: pipeline step allocates: " $$0; bad = 1 } } \
		END { if (bad) exit 1; print "pp-smoke: all BenchmarkStepPipeline* report 0 allocs/op" }' $(BENCH_SMOKE_OUT)

# Reduced-numerics smoke: short training runs under each reduced regime
# through the CLI (f32 GEMM → low-precision autograd staging → mixed
# precision → harness plumbing, end to end), then the numerics-focused
# test slices across the stack (the engine's mixed-precision tests are the
# data-parallel ones in internal/dist). The fp64 regime needs no smoke of its own:
# every other target trains it.
smoke-f32:
	$(GO) run ./cmd/mlperf -benchmark recommendation -dtype f32 -runs 1 -max-epochs 2
	$(GO) run ./cmd/mlperf -benchmark recommendation -dtype bf16 -runs 1 -max-epochs 2
	$(GO) test -run 'F32|BF16|Numerics|StatCheck|Quantize|MP|LP' ./internal/tensor ./internal/autograd ./internal/precision ./internal/core ./internal/dist

# Serving smoke: train a tiny NCF in-process, snapshot its parameters, and
# serve it under every traffic scenario (single-stream, multi-stream,
# offline, and Poisson server) through cmd/mlperf-serve, bounded by a hard
# timeout so an overload-path hang fails fast. The grep asserts an SLO
# verdict was actually emitted for the gated run — the train→snapshot→serve
# pipeline end to end.
serve-smoke:
	timeout 300 $(GO) run ./cmd/mlperf-serve -train -epochs 2 -scenario all \
		-queries 400 -qps 300 -slo 250ms -strict > serve-smoke.out || (cat serve-smoke.out; exit 1)
	@cat serve-smoke.out
	@grep -q 'SLO valid' serve-smoke.out || (echo "FAIL: no SLO verdict in serve-smoke output"; exit 1)
	@rm -f serve-smoke.out
	@echo "serve-smoke: all four scenarios served with a valid SLO verdict"

# Just the serial-vs-parallel substrate comparisons.
bench-kernels:
	$(GO) test -bench='MatMul|Conv2D|RunSet' -benchmem -run='^$$' .

# The GEMM engine benchmarks (packed vs naive reference, GFLOP/s via
# ReportMetric). BENCH_gemm.json holds the checked-in snapshot of these
# numbers so future PRs have a kernel-throughput baseline to diff against.
bench-gemm:
	$(GO) test -bench='^BenchmarkGEMM' -benchmem -run='^$$' .
