package tensor

import (
	"testing"

	"repro/internal/arena"
)

func TestNewInReleaseCycle(t *testing.T) {
	a := arena.New()
	x := NewIn(a, 3, 4)
	if x.Size() != 12 || !x.Arena() {
		t.Fatalf("NewIn: size %d arena %v", x.Size(), x.Arena())
	}
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	p := &x.Data[0]
	x.Release()
	// Same size class comes back from the pool, zeroed.
	y := NewIn(a, 2, 5)
	if &y.Data[0] != p {
		t.Fatal("NewIn after Release did not reuse the pooled buffer")
	}
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("recycled tensor not zeroed at %d: %v", i, v)
		}
	}
}

// An append past an arena tensor's length must reallocate instead of
// growing into the pooled buffer's spare capacity, where it would alias
// the next tensor drawn from the same class. NewIn's Data[:n:n] capacity
// assertion enforces this.
func TestArenaTensorAppendCannotAliasPool(t *testing.T) {
	a := arena.New()
	x := NewIn(a, 3) // class capacity 4: one spare element in the raw buffer
	if cap(x.Data) != 3 {
		t.Fatalf("arena tensor cap = %d, want len-capped 3", cap(x.Data))
	}
	grown := append(x.Data, 42) // must copy, not write the pooled spare slot
	grown[0] = 7
	if x.Data[0] == 7 {
		t.Fatal("append aliased the arena tensor's buffer")
	}
	x.Release()
	y := NewIn(a, 4) // reuses the full class-4 buffer, including the spare
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("pooled spare slot corrupted at %d: %v", i, v)
		}
	}
}

func TestReleaseNonArenaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of a heap tensor did not panic")
		}
	}()
	New(3).Release()
}

func TestDoubleReleasePanics(t *testing.T) {
	a := arena.New()
	x := NewIn(a, 8)
	x.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	x.Release()
}

// TestConv2DIm2colInMatchesConv2D checks that Conv2DInto with a caller
// arena reproduces Conv2D's bits and recycles its chunk workspaces.
func TestConv2DIm2colInMatchesConv2D(t *testing.T) {
	a := arena.New()
	rng := NewRNG(5)
	x := Randn(rng, 1, 2, 3, 6, 6)
	w := Randn(rng, 1, 4, 3, 3, 3)
	b := Randn(rng, 1, 4)
	ref := Conv2D(x, w, b, 1, 1)
	for pass := 0; pass < 2; pass++ { // second pass reuses pooled workspaces
		got := New(ref.Shape...)
		Conv2DInto(a, got, x, w, b, 1, 1)
		if !Equal(ref, got, 0) {
			t.Fatalf("pass %d: Conv2DInto differs from Conv2D", pass)
		}
	}
	if s := a.Stats(); s.Misses >= s.Gets {
		t.Fatalf("workspace pooling ineffective: %+v", s)
	}
}
