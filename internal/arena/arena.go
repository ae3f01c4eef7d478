// Package arena implements a size-bucketed, goroutine-safe pool of
// float buffers for the steady-state training hot paths. MLPerf's
// time-to-train metric rewards implementations whose per-step cost is flat
// — in Go terms, training loops that stop exercising the garbage collector
// once warm. The tensor substrate (tensor.NewIn / Tensor.Release), the
// autograd tape, and the data-parallel engine all draw their scratch and
// activation buffers from an Arena, so after the first step every buffer a
// step needs is recycled from the previous one and the steady-state
// allocation count is zero.
//
// The pool is generic over the element type (PoolOf[E]): the float64
// instantiation (Arena) backs the bit-identical fp64 reference path, and
// the float32 instantiation (Arena32) backs the reduced-precision compute
// path — the f32 GEMM engine's pack buffers and the autograd tape's
// reduced-precision staging buffers. Buffers are grouped into power-of-two
// size classes. The shared pool guards each class with its own mutex;
// workers that want uncontended access wrap the pool in a per-goroutine
// Local (NewLocal), a single-goroutine free list that batches refills from
// and spills to the parent.
package arena

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// maxClass bounds the supported size classes: class c holds buffers of
// capacity 2^c, so the largest poolable buffer is 2^(maxClass-1) elements
// (512 Mi elements — 4 GiB of float64 — far beyond any tensor in this
// repository).
const maxClass = 30

// Elem constrains the poolable element types: the two compute dtypes of
// the numeric stack.
type Elem interface {
	float32 | float64
}

// AllocatorOf is the buffer-source contract shared by PoolOf and LocalOf.
// Get returns a zero-filled slice of length n and GetRaw one with
// unspecified contents; Put recycles a slice previously returned by Get or
// GetRaw on the same allocator family.
type AllocatorOf[E Elem] interface {
	Get(n int) []E
	GetRaw(n int) []E
	Put(buf []E)
}

// Allocator is the float64 allocator contract — the interface the fp64
// reference path (tensor.NewIn, the autograd tape, the training engine) is
// written against.
type Allocator = AllocatorOf[float64]

// Allocator32 is the float32 allocator contract of the reduced-precision
// compute path.
type Allocator32 = AllocatorOf[float32]

// class returns the size-class index for a buffer of n elements: the
// smallest c with 2^c >= n.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Stats counts arena traffic. Gets and Puts include traffic through Local
// caches only when it spills into the shared arena.
type Stats struct {
	// Gets is the number of Get calls served by the shared arena.
	Gets uint64
	// Puts is the number of Put calls received by the shared arena.
	Puts uint64
	// Misses is the number of Gets that found an empty free list and had
	// to allocate a fresh buffer from the Go heap.
	Misses uint64
}

// PoolOf is a goroutine-safe, size-bucketed buffer pool over one element
// type. The zero value is not usable; construct with New (float64), New32
// (float32), or NewPool (any Elem).
type PoolOf[E Elem] struct {
	buckets [maxClass + 1]bucketOf[E]

	gets   atomic.Uint64
	puts   atomic.Uint64
	misses atomic.Uint64
}

// Arena is the float64 pool of the bit-identical fp64 reference path.
type Arena = PoolOf[float64]

// Arena32 is the float32 pool of the reduced-precision compute path.
type Arena32 = PoolOf[float32]

// bucketOf is one size class: a mutex-guarded stack of idle buffers.
type bucketOf[E Elem] struct {
	mu   sync.Mutex
	free [][]E
}

// New returns an empty float64 arena.
func New() *Arena { return &Arena{} }

// New32 returns an empty float32 arena.
func New32() *Arena32 { return &Arena32{} }

// NewPool returns an empty pool of the given element type.
func NewPool[E Elem]() *PoolOf[E] { return &PoolOf[E]{} }

// Get returns a zero-filled slice of length n (capacity rounded up to the
// class size). n == 0 returns nil. The caller owns the buffer until it
// passes it back via Put.
func (a *PoolOf[E]) Get(n int) []E {
	return zeroed(a.GetRaw(n))
}

// GetRaw returns a slice of length n with UNSPECIFIED contents — recycled
// buffers keep whatever the previous owner wrote. It is Get without the
// zero fill, for callers that overwrite the whole buffer anyway (the GEMM
// engines' pack buffers, which rewrite every element of each panel they
// stage, padding included). Everything else about the contract matches
// Get: the caller owns the buffer until it passes it back via Put.
func (a *PoolOf[E]) GetRaw(n int) []E {
	if n == 0 {
		return nil
	}
	if n < 0 {
		panic(fmt.Sprintf("arena: Get(%d)", n))
	}
	a.gets.Add(1)
	c := class(n)
	if c > maxClass {
		// Beyond the poolable range: plain heap allocation, never pooled
		// (Put drops such buffers for the GC to reclaim).
		a.misses.Add(1)
		return make([]E, n)
	}
	b := &a.buckets[c]
	b.mu.Lock()
	if len(b.free) > 0 {
		buf := b.free[len(b.free)-1]
		b.free[len(b.free)-1] = nil
		b.free = b.free[:len(b.free)-1]
		b.mu.Unlock()
		return buf[:n]
	}
	b.mu.Unlock()
	a.misses.Add(1)
	return make([]E, n, 1<<c)
}

// zeroed clears and returns buf — Get's zero-fill layered over GetRaw.
func zeroed[E Elem](buf []E) []E {
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Put recycles a buffer previously returned by Get. It accepts any slice
// whose capacity is at least one full size class (foreign buffers are
// filed under the largest class that fits), ignores nil/empty slices and
// buffers beyond the poolable range (Get never serves those from the pool,
// so retaining them would only pin memory), and panics when buf is already
// the most recently filed buffer of its class — the cheap
// immediate-double-Put check; Tensor.Release layers a precise one on top.
func (a *PoolOf[E]) Put(buf []E) {
	if cap(buf) == 0 {
		return
	}
	// File under the largest class the capacity fully covers, so a later
	// Get of that class can hand this buffer out.
	c := bits.Len(uint(cap(buf))) - 1
	if c > maxClass {
		return
	}
	a.puts.Add(1)
	buf = buf[:1<<c]
	b := &a.buckets[c]
	b.mu.Lock()
	if n := len(b.free); n > 0 && &b.free[n-1][0] == &buf[0] {
		b.mu.Unlock()
		panic("arena: double Put of the same buffer")
	}
	b.free = append(b.free, buf)
	b.mu.Unlock()
}

// Stats returns cumulative traffic counters for the shared arena.
func (a *PoolOf[E]) Stats() Stats {
	return Stats{Gets: a.gets.Load(), Puts: a.puts.Load(), Misses: a.misses.Load()}
}

// localKeep is how many idle buffers per class a Local retains before
// spilling to the parent arena.
const localKeep = 8

// LocalOf is a per-worker free list in front of a shared pool: Get and Put
// hit the local stacks without locking and fall through to the parent only
// on miss or overflow. A LocalOf must be used by one goroutine at a time
// (e.g. one data-parallel worker); the parent pool provides the safe
// cross-worker exchange.
type LocalOf[E Elem] struct {
	parent *PoolOf[E]
	free   [maxClass + 1][][]E
}

// Local is the float64 per-worker cache of the fp64 reference path.
type Local = LocalOf[float64]

// NewLocal returns a per-worker cache backed by the pool.
func (a *PoolOf[E]) NewLocal() *LocalOf[E] { return &LocalOf[E]{parent: a} }

// Get returns a zero-filled slice of length n, preferring the local free
// list over the shared arena.
func (l *LocalOf[E]) Get(n int) []E {
	return zeroed(l.GetRaw(n))
}

// GetRaw returns a slice of length n with UNSPECIFIED contents,
// preferring the local free list — LocalOf's counterpart of PoolOf.GetRaw.
func (l *LocalOf[E]) GetRaw(n int) []E {
	if n == 0 {
		return nil
	}
	if n < 0 {
		panic(fmt.Sprintf("arena: Get(%d)", n))
	}
	c := class(n)
	if c > maxClass {
		return l.parent.GetRaw(n)
	}
	if s := l.free[c]; len(s) > 0 {
		buf := s[len(s)-1]
		s[len(s)-1] = nil
		l.free[c] = s[:len(s)-1]
		return buf[:n]
	}
	return l.parent.GetRaw(n)
}

// Put recycles a buffer into the local free list, spilling to the parent
// arena when the class is full.
func (l *LocalOf[E]) Put(buf []E) {
	if cap(buf) == 0 {
		return
	}
	c := bits.Len(uint(cap(buf))) - 1
	if c > maxClass {
		return // beyond the poolable range; let the GC reclaim it
	}
	if len(l.free[c]) >= localKeep {
		l.parent.Put(buf)
		return
	}
	buf = buf[:1<<c]
	if n := len(l.free[c]); n > 0 && &l.free[c][n-1][0] == &buf[0] {
		panic("arena: double Put of the same buffer")
	}
	l.free[c] = append(l.free[c], buf)
}

// Flush spills every locally cached buffer back to the parent arena.
func (l *LocalOf[E]) Flush() {
	for c := range l.free {
		for _, buf := range l.free[c] {
			l.parent.Put(buf)
		}
		l.free[c] = l.free[c][:0]
	}
}
