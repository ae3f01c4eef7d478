// Package dist keeps two names of the one training engine for the frozen
// time-to-train benchmark in ttbench/, which asserts grid engines to
// *dist.Engine and records dist.Stats. Data parallelism is the
// internal/pipeline engine at one stage; new code names pipeline.Engine
// and pipeline.Stats, and this package goes with the next change to
// ttbench/.
package dist

import "repro/internal/pipeline"

// Engine is pipeline.Engine.
type Engine = pipeline.Engine

// Stats is pipeline.Stats.
type Stats = pipeline.Stats
