package data

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestLoaderCoversEveryExampleOncePerEpoch(t *testing.T) {
	l := NewLoader(10, 3, tensor.NewRNG(1))
	seen := map[int]int{}
	steps := l.StepsPerEpoch()
	if steps != 4 {
		t.Fatalf("StepsPerEpoch = %d", steps)
	}
	for i := 0; i < steps; i++ {
		idx, _ := l.Next()
		for _, id := range idx {
			seen[id]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("epoch covered %d of 10 examples", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("example %d seen %d times in one epoch", id, n)
		}
	}
}

func TestLoaderDropLast(t *testing.T) {
	l := NewLoader(10, 3, tensor.NewRNG(1))
	l.DropLast = true
	if l.StepsPerEpoch() != 3 {
		t.Fatalf("drop-last steps = %d", l.StepsPerEpoch())
	}
	for i := 0; i < 3; i++ {
		idx, _ := l.Next()
		if len(idx) != 3 {
			t.Fatalf("drop-last batch size %d", len(idx))
		}
	}
}

func TestLoaderEpochAccounting(t *testing.T) {
	l := NewLoader(6, 2, tensor.NewRNG(2))
	if l.Epoch() != 0 {
		t.Fatal("fresh loader at epoch 0")
	}
	for i := 0; i < 3; i++ {
		l.Next()
	}
	_, newEpoch := l.Next()
	if !newEpoch || l.Epoch() != 1 {
		t.Fatalf("expected epoch rollover: newEpoch=%v epoch=%d", newEpoch, l.Epoch())
	}
}

func TestLoaderDeterministicPerSeed(t *testing.T) {
	a := NewLoader(20, 4, tensor.NewRNG(7))
	b := NewLoader(20, 4, tensor.NewRNG(7))
	for i := 0; i < 15; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		for j := range ia {
			if ia[j] != ib[j] {
				t.Fatal("same seed must give the same traversal")
			}
		}
	}
	c := NewLoader(20, 4, tensor.NewRNG(8))
	ia, _ := NewLoader(20, 4, tensor.NewRNG(7)).Next()
	ic, _ := c.Next()
	diff := false
	for j := range ia {
		if ia[j] != ic[j] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds should shuffle differently")
	}
}

func TestLoaderShufflesBetweenEpochs(t *testing.T) {
	l := NewLoader(32, 32, tensor.NewRNG(3))
	first, _ := l.Next()
	a := append([]int(nil), first...) // Next's slice is only valid until the next call
	b, _ := l.Next()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("epochs should be reshuffled")
	}
}

func TestLoaderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLoader(0, 4, tensor.NewRNG(1))
}

func TestShardPartitionProperty(t *testing.T) {
	f := func(nRaw uint8, workersRaw uint8) bool {
		n := int(nRaw%64) + 1
		workers := int(workersRaw%8) + 1
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		total := 0
		seen := map[int]bool{}
		for w := 0; w < workers; w++ {
			shard := Shard(idx, w, workers)
			total += len(shard)
			for _, v := range shard {
				if seen[v] {
					return false // overlap
				}
				seen[v] = true
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShardBalance(t *testing.T) {
	idx := make([]int, 100)
	for w := 0; w < 7; w++ {
		s := Shard(idx, w, 7)
		if len(s) < 100/7 || len(s) > 100/7+1 {
			t.Fatalf("shard %d unbalanced: %d", w, len(s))
		}
	}
}

func TestShardPanicsOnBadWorker(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Shard([]int{1, 2}, 2, 2)
}

func TestPipelineValidation(t *testing.T) {
	ok := Pipeline{Transforms: []Transform{
		{Name: "decode", Stage: StageReformat, Deterministic: true},
		{Name: "random_crop", Stage: StageAugment, Deterministic: false},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid pipeline rejected: %v", err)
	}
	// The §3.2.1 violation: hoisting stochastic augmentation into the
	// untimed reformat stage.
	bad := Pipeline{Transforms: []Transform{
		{Name: "random_crop", Stage: StageReformat, Deterministic: false},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("stochastic reformat-stage transform must be rejected")
	}
}

// Regression: DropLast with Batch > N used to emit short batches anyway
// (violating the DropLast contract), report StepsPerEpoch() == 0, and bump
// the epoch counter on the very first Next call. The configuration yields
// zero batches per epoch and is now rejected outright.
func TestLoaderDropLastRejectsBatchLargerThanN(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic for DropLast with Batch > N", name)
			}
		}()
		f()
	}
	l := NewLoader(3, 5, tensor.NewRNG(1))
	l.DropLast = true
	expectPanic("Next", func() { l.Next() })
	expectPanic("StepsPerEpoch", func() { l.StepsPerEpoch() })
}

// DropLast with Batch == N is the boundary case and must work: one full
// batch per epoch, correct epoch accounting.
func TestLoaderDropLastBatchEqualsN(t *testing.T) {
	l := NewLoader(4, 4, tensor.NewRNG(1))
	l.DropLast = true
	if got := l.StepsPerEpoch(); got != 1 {
		t.Fatalf("StepsPerEpoch = %d, want 1", got)
	}
	idx, _ := l.Next()
	if len(idx) != 4 || l.Epoch() != 0 {
		t.Fatalf("first batch len %d epoch %d", len(idx), l.Epoch())
	}
	idx, newEpoch := l.Next()
	if len(idx) != 4 || !newEpoch || l.Epoch() != 1 {
		t.Fatalf("second batch len %d newEpoch %v epoch %d", len(idx), newEpoch, l.Epoch())
	}
}

// Sharding a batch must be a partition in order: the concatenation of the
// worker shards equals the original batch for every worker count, including
// ragged lengths — the invariant the training engine relies on to keep
// its gradient reduction worker-count-invariant.
func TestShardConcatenationEqualsBatch(t *testing.T) {
	for _, n := range []int{1, 7, 50, 64} {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = 100 + i
		}
		for _, workers := range []int{1, 2, 3, 6, 8} {
			var cat []int
			for w := 0; w < workers; w++ {
				cat = append(cat, Shard(idx, w, workers)...)
			}
			if len(cat) != n {
				t.Fatalf("n=%d workers=%d: concat length %d", n, workers, len(cat))
			}
			for i := range cat {
				if cat[i] != idx[i] {
					t.Fatalf("n=%d workers=%d: order broken at %d", n, workers, i)
				}
			}
		}
	}
}

// A loader's global batch stream is a function of (N, Batch, seed) only —
// never of how many workers later shard each batch. Sharded traversal at
// any worker count therefore covers exactly the serial stream.
func TestShardedLoaderDeterministicAcrossWorkerCounts(t *testing.T) {
	stream := func() [][]int {
		l := NewLoader(37, 8, tensor.NewRNG(9))
		var out [][]int
		for i := 0; i < 12; i++ {
			idx, _ := l.Next()
			out = append(out, append([]int(nil), idx...))
		}
		return out
	}
	ref := stream()
	for _, workers := range []int{2, 4, 8} {
		got := stream()
		for s := range ref {
			// The global batch is identical regardless of worker count...
			if len(got[s]) != len(ref[s]) {
				t.Fatalf("workers=%d step %d: batch length changed", workers, s)
			}
			for i := range ref[s] {
				if got[s][i] != ref[s][i] {
					t.Fatalf("workers=%d step %d: stream diverged", workers, s)
				}
			}
			// ...and sharding it covers every element exactly once.
			seen := map[int]int{}
			for w := 0; w < workers; w++ {
				for _, v := range Shard(got[s], w, workers) {
					seen[v]++
				}
			}
			if len(seen) != len(got[s]) {
				t.Fatalf("workers=%d step %d: shards covered %d of %d", workers, s, len(seen), len(got[s]))
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d step %d: element %d assigned %d times", workers, s, v, c)
				}
			}
		}
	}
}
