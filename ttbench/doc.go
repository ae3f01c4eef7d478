// Command ttbench is the repository's time-to-train benchmark. It drives
// the program only through the public entry points the commands use
// (core.Configure and core.Run, grid.Build over a transport.DialTCPMesh,
// serve.Run, ckpt), checks every output, and prints the metrics by name
// with their units; the last line of standard output is one JSON object.
//
// Run it from the repository root:
//
//	bash ttbench/run.sh --workload resnet_serial --seed 1 --seconds 15 --trace 0
//
// run.sh builds the binary into .bench_build and keeps the Go build cache
// and all run files there.
//
// # Workloads
//
// Each workload keeps at most two goroutines busy and opens at most one
// TCP connection.
//
//   - resnet_serial: image_classification v0.5, serial, default kernel
//     pool, trained to 0.749 top-1. Loads the conv kernels heavily (they
//     take most of its CPU, the direct conv backward alone most of that);
//     loads no transport, no checkpointing and little GEMM. The workload
//     for convolution and serial training-loop changes.
//   - transformer_pp2: translation_transformer with two pipeline stages on
//     the in-process fabric, trained to BLEU 25. Loads GEMM, the allocator
//     and pipeline boundary traffic heavily, and greedy-decode evaluation
//     (about a third of its CPU); loads no convolution, so a conv change
//     should leave it unchanged.
//   - ncf_ckpt_serve: recommendation, serial, trained to HR@10 with a
//     checkpoint every epoch; each trained snapshot is then served through
//     serve.Run, server scenario at 1000 QPS (admission queue as deep as
//     the query count, so a host stall shows as latency, not rejections)
//     and then offline, by one inference worker. The model is tiny, so the loader, the checkpoint
//     encoder and write path, and the batcher dominate.
//   - ncf_dp2_tcp: recommendation with two data-parallel ranks, each a
//     shard-mode engine from grid.Build, over one loopback TCP mesh in this
//     process, trained epoch by epoch to HR@10. The only workload with
//     CRC-framed TCP and the dist ring on the blocking path.
//
// SSD, Mask R-CNN, GNMT and MiniGo are left out: one run of each takes
// 8 to 44 seconds, and their heavy layers (convolution, the serial loop)
// are already loaded by resnet_serial.
//
// # Inputs
//
// Every workload trains a fixed list of seeds (resnet_serial and
// transformer_pp2: 1-3; ncf_ckpt_serve: 1-5; ncf_dp2_tcp: 1-4). float64
// training is bit-deterministic per seed, so epochs_to_target repeats
// exactly and a change in it means the change altered convergence. --seed
// sets the order the seeds run in, the serving sample pool and the Poisson
// arrival schedule; the program receives only the generated inputs.
// --seconds is the budget: whole passes over the seed list run while the
// next one is expected to fit, at least one.
//
// # End-to-end metrics
//
// Measured untraced, as medians over the repetitions (one repetition = one
// seed trained, checked, and for ncf_ckpt_serve served). The gated ones,
// listed in BENCHMARK.json, are those that stay steadiest on a host whose
// hypervisor steals a varying share of CPU time and whose speed drifts with
// its neighbours' load: CPU time drifts too, but far less than wall time.
//
//   - cpu_s: user+system CPU seconds of one train-to-target run, from
//     getrusage.
//   - epochs_to_target: epochs to reach the target; it repeats exactly, so
//     it catches a faster step that costs epochs.
//   - peak_rss_mb: peak resident memory of one repetition, which starts
//     from a heap returned to the OS.
//   - setup_s: median over nine fresh processes of the CPU seconds from
//     process start to the first timed step: dataset generation,
//     Configure, model and engine construction, mesh dial and snapshot
//     restore. setup_wall_s, the same span in wall time, is printed beside
//     it.
//
// Printed beside them, ungated: ttt_s (core.RunResult.TimeToTrain, run_start
// to run_stop with the §3.2.1 exclusions; for ncf_dp2_tcp the same span
// timed by the benchmark, mesh dial and engine construction excluded),
// train_samples_per_s and train_samples_per_cpu_s (loader samples per wall
// and per CPU second of the training loop, evaluation excluded);
// step_ms_p50 and step_ms_p99 (per-StepNext latency of rank 0 on
// ncf_dp2_tcp, with the step count); serve_p50_ms (server scenario, timed
// from each query's scheduled arrival in an open loop) and
// serve_offline_qps on ncf_ckpt_serve; and failed_share on every workload.
//
// failed_share is the JSON's failed/attempted: a training run fails if it
// misses its target or errors; a query if it is rejected or its prediction
// differs in any bit from a direct RecInferCtx.InferBatch; a checkpoint
// check if the newest checkpoint does not load through ckpt with the run's
// final parameter digest; a TCP step if it errors or the ranks' trajectory
// digests differ from each other or from grid.Reference.
//
// # Traced run
//
// --trace 1 trains the run's first seed twice: untraced, then traced with
// a workload wrapper around Benchmark.New's workload (TrainEpoch, Evaluate,
// CaptureTrainState, and the pipeline engine's Stats read at Close), a
// timing wrapper around each rank's transport.Mesh, a timing wrapper
// around serve.InferContext, runtime.MemStats deltas and a runtime/pprof
// CPU profile summarised with go tool pprof. It fails the run unless the
// traced pass reproduces the untraced epochs, quality, parameter digest,
// predictions and TCP digests exactly, and reports its overhead as traced
// over untraced ttt_s (trace.overhead). No program code is instrumented.
//
// Per-layer metrics, with the end-to-end metric and workload each should
// move (a layer a workload does not load reads 0):
//
//   - core.train_epoch_ms: ttt_s, cpu_s and train_samples_per_cpu_s on
//     resnet_serial; core.eval_ms, core.eval_share: ttt_s and cpu_s on
//     transformer_pp2.
//   - datasets.gen_ms, models.build_ms: setup_s on every workload.
//   - ckpt.capture_ms, ckpt.write_ms (ckpt.Writer.Write replayed on the
//     captured states), ckpt.bytes, ckpt.stall_share (ttt_s with
//     checkpoints against one pass without): ttt_s on ncf_ckpt_serve, and
//     cpu_s through the encoder.
//   - serve.infer_ms, serve.batch_size_mean: serve_offline_qps;
//     serve.wait_ms_p50 (latency minus the batch's inference time):
//     serve_p50_ms; serve.p50_ms, serve.p99_ms, serve.rejected,
//     serve.offline_qps, serve.max_qps (serve.FindMaxQPS under a 20 ms
//     p99 bound) are reported only. All on ncf_ckpt_serve.
//   - pipeline.step_ms, pipeline.activation_sends_per_step,
//     pipeline.activation_mb_per_step (engine Stats), and
//     pipeline.bubble_analytic ((S-1)/M from cluster.PipelineConfig):
//     ttt_s and train_samples_per_cpu_s on transformer_pp2.
//   - transport.send_ms_per_step, transport.recv_wait_ms_per_step:
//     step_ms_p50 and step_ms_p99; transport.frames_per_step and
//     transport.bytes_per_step (checked against dist.Stats):
//     step_ms_p50; dist.compute_ms_per_step, what remains of a step after
//     send and receive wait; dist.step_ms_p50 and dist.step_ms_p99, the
//     traced run's copy of the step latencies. All on ncf_dp2_tcp.
//   - runtime.alloc_mb_per_ksample, runtime.mallocs_per_ksample,
//     runtime.gc_cycles, runtime.gc_pause_ms: ttt_s and cpu_s on
//     transformer_pp2, step_ms_p99 on ncf_dp2_tcp.
//   - cpu.tensor, cpu.autograd, cpu.nn, cpu.models, cpu.opt, cpu.data,
//     cpu.metrics, cpu.dist, cpu.pipeline, cpu.transport, cpu.ckpt,
//     cpu.serve, cpu.gc_alloc, cpu.syscall, cpu.other: shares of flat CPU
//     samples by package; cpu.tensor moves cpu_s, train_samples_per_cpu_s
//     and ttt_s on resnet_serial.
//
// Every result also records the CPU model, nproc, GOMAXPROCS, the Go
// version, the commit (read from .git when present) and the share of CPU
// time the hypervisor stole during the run, from /proc/stat.
package main
