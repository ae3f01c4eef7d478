// Package repro is a from-scratch Go reproduction of "MLPerf Training
// Benchmark" (Mattson et al., MLSys 2020): the benchmark suite of Table 1,
// the time-to-train measurement methodology with its timing rules, the
// submission/review process, and every evaluation artifact in the paper.
//
// The package tree:
//
//	internal/core       — suite, runner, timing rules, aggregation (the
//	                      paper's contribution); two-regime verification:
//	                      the fp64 stack is gated bitwise, reduced
//	                      numerics are gated by StatCheck, the §3.3
//	                      epochs-to-quality quantile comparison over
//	                      paired run sets. TrainConfig + Configure is the
//	                      one run-configuration surface (topology ×
//	                      numerics × transport). Run surfaces sticky
//	                      engine failures as RunResult.Err
//	internal/parallel   — worker pool + sharded loops and 2-D tile loops
//	                      (ForTiles: row×column output tiles, so skinny and
//	                      short matrices keep every worker busy;
//	                      deterministic parallel substrate)
//	internal/arena      — generic size-bucketed buffer pool (float64 and
//	                      float32 element types) with per-worker free
//	                      lists; backs the allocation-free steady-state
//	                      training step (0 allocs/op after warmup), the
//	                      GEMM pack buffers and the convolution's chunk
//	                      workspaces (GetRaw)
//	internal/tensor     — dense tensors + deterministic RNG; blocked,
//	                      packed, register-tiled GEMM engines (gemm.go/
//	                      gemm32.go: GotoBLAS-style MC×KC×NC blocking;
//	                      AVX2 4×8 f64 and 8×8 f32 micro-kernels with
//	                      portable fallbacks, bit-identical to the naive
//	                      reference kernels); one convolution, forward and
//	                      backward: tap-major im2col → the packed GEMM →
//	                      fold, in sample chunks of a fixed ~16K-float
//	                      patch budget; F32 storage + bf16 rounding
//	internal/autograd   — tape-based reverse-mode autodiff (pooled, replayable
//	                      tapes: Reset + slot reuse keep warm steps alloc-free;
//	                      per-tape compute dtype stages MatMul and
//	                      Attention operands in f32/bf16, BackwardScaled
//	                      seeds the loss scale; multi-head attention is one
//	                      fused node, Attention, over every sentence and head)
//	internal/nn         — layer library (conv, BN, LSTM, attention, ...) and
//	                      its tape-free forward kernels (ApplyInto, Attend);
//	                      positional tables built once per model (Positional)
//	internal/opt        — SGD (both §2.2.4 momentum forms), Adam, LARS, schedules;
//	                      GradScaled lets mixed precision divide the loss
//	                      scale out inside the update loop
//	internal/precision  — simulated numeric formats (Figure 1) and the
//	                      mixed-precision trainer: bf16 master-weight
//	                      rounds, fp32/fp64 accumulation, dynamic loss
//	                      scaling (power-of-two scales, exact unscale)
//	internal/data       — input pipeline + §3.2.1 stage rules
//	internal/datasets   — synthetic stand-ins for ImageNet/COCO/WMT/MovieLens
//	internal/metrics    — top-1, mAP, BLEU, HR@10, move match
//	internal/models     — the 7 benchmark models; Transformer evaluation runs a
//	                      batched, KV-cached, tape-free greedy decoder
//	internal/pipeline   — the training engine for every parallel topology:
//	                      data parallelism at one stage (K worker replicas,
//	                      deterministic chunked ring all-reduce), S
//	                      cost-balanced model stages under GPipe/1F1B, and
//	                      hybrid DP×PP via per-stage ring groups;
//	                      bit-identical across stages/schedules/workers
//	internal/dist       — two type aliases of the engine kept for ttbench/
//	internal/transport  — pluggable communication substrate under the
//	                      engines (the Mesh contract): the in-process
//	                      channel fabric (the bit-identity oracle) and a
//	                      TCP backend with length-prefixed CRC frames,
//	                      deadlines, and retry/backoff; plus the
//	                      rendezvous coordinator/session (membership,
//	                      heartbeat failure detection). Failure is always
//	                      a typed *PeerError, never a hang
//	internal/grid       — multi-process DP×PP training: one OS process per
//	                      grid cell (rank k·S+s = replica k, stage s),
//	                      launcher/worker harness (cmd/mlperf-worker),
//	                      FNV-1a parameter-trajectory digests, the
//	                      in-process Reference run the TCP grid must
//	                      reproduce bit-for-bit, and the elastic
//	                      supervisor (Supervise): a failed generation is
//	                      respawned from the newest complete checkpoint
//	                      set and still finishes digest-identical to a
//	                      never-killed run
//	internal/ckpt       — sealed training checkpoints: the full TrainState
//	                      (params, optimizer slots, loss scale, RNG
//	                      streams, loader cursor, step/epoch) in one
//	                      FNV-1a digest-verified file, written atomically
//	                      (temp+rename) with bounded retention; Latest/
//	                      LatestComplete pick the newest valid set, so a
//	                      torn or corrupt file can never be resumed from
//	internal/codec      — the one byte codec under the sealed files and
//	                      digests: the FNV-1a 64 fold, an append-style
//	                      little-endian encoder, a bounds-checked decoder
//	                      with a sticky error, and Seal/Open for the
//	                      trailing byte-level seal (MLPSNAP1, MLPCKPT1,
//	                      grid trajectory digests, TCP dial jitter)
//	internal/chaos      — seeded fault injection: a FaultPlan is a pure
//	                      function of (seed, config) — worker crashes per
//	                      restart generation, wire-level faults (frame
//	                      corruption the CRC must catch, drops, delays)
//	                      via transport's WrapConn hook, and slow-inference
//	                      wrapping for serve backends
//	internal/serve      — LoadGen-style serving harness over trained
//	                      models: four traffic scenarios (single-stream,
//	                      multi-stream, offline, Poisson server), a dynamic
//	                      batcher over an admission-controlled bounded
//	                      queue (overload is a typed *OverloadError, never
//	                      a hang), R-7 tail-latency quantiles via
//	                      core.Quantile, SLO verdicts, and binary-searched
//	                      max sustainable QPS; arrival schedules and
//	                      predictions are bit-reproducible at a fixed seed
//	                      across runs and worker counts. Driven by
//	                      cmd/mlperf-serve; fed by models.Snapshot, the
//	                      deterministic digest-verified parameter handoff
//	                      from core.Run's CaptureParams
//	internal/leakcheck  — goroutine-leak assertions for teardown tests
//	internal/goboard    — Go engine; internal/mcts — self-play search
//	internal/mlog       — MLLOG structured logging
//	internal/clock      — injectable clocks (Real wall clock, Tick, Sim);
//	                      the only package allowed to call time.Now, so
//	                      every timing path is deterministic under test
//	internal/cluster    — simulated scale-out (Figures 4–5)
//	internal/submission — §4 divisions, categories, review, reporting
//	internal/analysis   — the mlperf-vet analyzer suite (detlint,
//	                      arenalint, hotpath, mloglint, nestpar):
//	                      mechanical enforcement of the determinism,
//	                      arena-ownership, hot-path-allocation, MLLOG-key,
//	                      and pool-re-entry invariants; driven by
//	                      cmd/mlperf-vet (make lint, gated in CI)
//
// The benchmarks in bench_test.go regenerate every table and figure; see
// DESIGN.md and EXPERIMENTS.md.
package repro
