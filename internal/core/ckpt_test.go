package core

import (
	"testing"

	"repro/internal/mlog"
)

// finalDigest runs a benchmark to completion under cfg and returns the
// final-parameter digest plus the run's log.
func finalDigest(t *testing.T, b Benchmark, cfg RunConfig) (string, *mlog.Logger) {
	t.Helper()
	cfg.CaptureParams = true
	res := Run(b, cfg)
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if res.FinalParams == nil {
		t.Fatal("run captured no parameters")
	}
	return res.FinalParams.Digest(), res.Log
}

// resumeDigest resumes a benchmark under cfg and returns the final digest
// plus the resumed run's log.
func resumeDigest(t *testing.T, b Benchmark, cfg RunConfig) (string, *mlog.Logger) {
	t.Helper()
	cfg.CaptureParams = true
	res, err := Resume(b, cfg)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("resumed run failed: %v", res.Err)
	}
	if res.FinalParams == nil {
		t.Fatal("resumed run captured no parameters")
	}
	return res.FinalParams.Digest(), res.Log
}

// benchmarksForCrashSweep returns the serial and DP-2 NCF benchmarks the
// boundary sweep exercises.
func benchmarksForCrashSweep(t *testing.T) map[string]Benchmark {
	t.Helper()
	serial, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := Configure(V05, "recommendation", TrainConfig{Parallel: Parallel{DP: 2, Microbatches: 8}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Benchmark{"serial": serial, "dp2": dp2}
}

// TestCrashAtEveryCheckpointBoundary is the satellite sweep: for a small
// NCF run, simulate a crash immediately after EVERY checkpoint boundary
// (the runner checkpoints at epoch granularity) and resume; each resumed
// run's final parameter digest must equal the uninterrupted reference's.
// Runs for both the serial workload and the DP-2 engine.
func TestCrashAtEveryCheckpointBoundary(t *testing.T) {
	const seed, epochs = 42, 4
	for name, b := range benchmarksForCrashSweep(t) {
		t.Run(name, func(t *testing.T) {
			refDigest, refLog := finalDigest(t, b, RunConfig{
				Seed: seed, MaxEpochs: epochs,
				Checkpoint: CheckpointConfig{Dir: t.TempDir()},
			})
			// The reference run emitted checkpoint events at every boundary.
			if evs := mlog.FindAll(refLog.Events, mlog.KeyCheckpointStep); len(evs) != epochs {
				t.Fatalf("reference logged %d %s events, want %d", len(evs), mlog.KeyCheckpointStep, epochs)
			}
			if evs := mlog.FindAll(refLog.Events, mlog.KeyCheckpointDigest); len(evs) != epochs {
				t.Fatalf("reference logged %d %s events, want %d", len(evs), mlog.KeyCheckpointDigest, epochs)
			}

			for crashAfter := 1; crashAfter < epochs; crashAfter++ {
				dir := t.TempDir()
				// The "crashed" run: trains exactly crashAfter epochs (each a
				// checkpoint boundary), then dies before finishing.
				crashed := Run(b, RunConfig{
					Seed: seed, MaxEpochs: crashAfter,
					Checkpoint: CheckpointConfig{Dir: dir},
				})
				if crashed.Err != nil {
					t.Fatalf("crash-prefix run (epochs=%d) failed: %v", crashAfter, crashed.Err)
				}
				got, resLog := resumeDigest(t, b, RunConfig{
					Seed: seed, MaxEpochs: epochs,
					Checkpoint: CheckpointConfig{Dir: dir},
				})
				if got != refDigest {
					t.Errorf("crash after epoch %d: resumed digest %s != reference %s", crashAfter, got, refDigest)
				}
				ev := mlog.Find(resLog.Events, mlog.KeyResumeFromStep)
				if ev == nil {
					t.Fatalf("crash after epoch %d: resumed run logged no %s", crashAfter, mlog.KeyResumeFromStep)
				}
				if step, ok := ev.Value.(int); !ok || step <= 0 {
					t.Errorf("crash after epoch %d: %s = %v, want positive step", crashAfter, mlog.KeyResumeFromStep, ev.Value)
				}
			}
		})
	}
}

// TestResumeWithoutCheckpointRunsFresh checks Resume on an empty directory
// degrades to a plain run (the supervisor restarts crashed runs with
// Resume unconditionally).
func TestResumeWithoutCheckpointRunsFresh(t *testing.T) {
	b, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	const seed, epochs = 7, 2
	refDigest, _ := finalDigest(t, b, RunConfig{
		Seed: seed, MaxEpochs: epochs,
		Checkpoint: CheckpointConfig{Dir: t.TempDir()},
	})
	got, resLog := resumeDigest(t, b, RunConfig{
		Seed: seed, MaxEpochs: epochs,
		Checkpoint: CheckpointConfig{Dir: t.TempDir()},
	})
	if got != refDigest {
		t.Errorf("fresh Resume digest %s != Run digest %s", got, refDigest)
	}
	if ev := mlog.Find(resLog.Events, mlog.KeyResumeFromStep); ev != nil {
		t.Error("fresh Resume logged resume_from_step")
	}
}
