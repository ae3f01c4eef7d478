package pipeline

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/transport"
)

// Ring stream tags. The ring's two legs multiplex over each member pair's
// link independently of the engine's boundary streams (whose rank pairs
// differ anyway: ring links connect replicas of one stage, boundary links
// connect adjacent stages of one replica).
const (
	streamReduce uint32 = 0x5244 // "RD": reduce-scatter leg
	streamGather uint32 = 0x4754 // "GT": all-gather leg
)

// Ring is a reusable K-member chunked ring all-reduce over rows of
// flattened gradient contributions: the data-parallel leg of every stage
// group (at one stage, the whole of data parallelism).
//
// A reduction round sums a set of rows (each flatLen long) in ascending row
// order into every member's aggregate buffer. Member w contributes the
// contiguous row range it owns; the reduce-scatter leg pipelines chunks up
// the ring 0 → 1 → … → K−1 with each member adding its rows in ascending
// order, and the all-gather leg circulates the finished chunks K−1 → 0 → …
// → K−2. Because each chunk's partial sums accumulate strictly in ascending
// row order, the result is bit-identical to a serial ascending sum — the
// determinism contract the engine's tests assert.
//
// The legs run over a transport.Mesh, so the same code drives the
// in-process channel fabric (NewRing — the historical single-process form)
// and a multi-process TCP mesh (NewRingOver with an external endpoint per
// local member). Message copies preserve float64 bits, so the backend never
// affects results. All scratch state is allocated once, and warm rounds
// over the in-process fabric perform zero heap allocations.
type Ring struct {
	members int
	chunks  int
	flatLen int

	// eps[w] is member w's mesh endpoint (nil for members hosted by other
	// processes — shard mode has exactly one non-nil entry). A
	// single-member ring needs no endpoints at all.
	eps []transport.Mesh
	// ownFab is set when NewRing built a private in-process fabric; Close
	// then tears the endpoints down too.
	ownFab bool
	// scratch[w] is member w's traveling-chunk buffer (max chunk size).
	scratch [][]float64

	buffers *arena.Arena
}

// NewRing builds a fully in-process ring over the given member count, chunk
// count (the pipelining grain, clamped to [1, flatLen]; it never affects
// results), and flat vector length, drawing its scratch buffers from the
// arena. A single-member ring degenerates to a serial ascending-row sum.
func NewRing(members, chunks, flatLen int, buffers *arena.Arena) *Ring {
	var eps []transport.Mesh
	if members > 1 {
		fab := transport.NewLocalFabric(members, buffers)
		eps = make([]transport.Mesh, members)
		for w := range eps {
			eps[w] = fab.Endpoint(w)
		}
	}
	r := newRing(members, chunks, flatLen, eps, buffers)
	r.ownFab = true
	return r
}

// NewRingOver builds a ring whose members communicate over the given
// external mesh endpoints: eps[w] is member w's endpoint, nil for members
// hosted elsewhere (multi-process shard mode). Each endpoint's World must
// equal len(eps). The ring does not close external endpoints.
func NewRingOver(eps []transport.Mesh, chunks, flatLen int, buffers *arena.Arena) *Ring {
	for w, ep := range eps {
		if ep != nil && ep.World() != len(eps) {
			panic(fmt.Sprintf("pipeline: NewRingOver endpoint %d has world %d, want %d", w, ep.World(), len(eps)))
		}
	}
	return newRing(len(eps), chunks, flatLen, eps, buffers)
}

func newRing(members, chunks, flatLen int, eps []transport.Mesh, buffers *arena.Arena) *Ring {
	if members < 1 {
		panic(fmt.Sprintf("pipeline: NewRing members %d < 1", members))
	}
	if flatLen < 1 {
		panic(fmt.Sprintf("pipeline: NewRing flatLen %d < 1", flatLen))
	}
	if chunks < 1 {
		chunks = members
	}
	if chunks > flatLen {
		chunks = flatLen
	}
	r := &Ring{members: members, chunks: chunks, flatLen: flatLen, eps: eps, buffers: buffers}
	if members > 1 {
		maxChunk := 0
		for c := 0; c < chunks; c++ {
			lo, hi := r.ChunkRange(c)
			if hi-lo > maxChunk {
				maxChunk = hi - lo
			}
		}
		r.scratch = make([][]float64, members)
		for w := range r.scratch {
			if eps[w] != nil {
				r.scratch[w] = buffers.Get(maxChunk) //mlperfvet:owns — ring state, released in Close
			}
		}
	}
	return r
}

// Members returns the ring's member count.
func (r *Ring) Members() int { return r.members }

// Chunks returns the effective chunk count after clamping.
func (r *Ring) Chunks() int { return r.chunks }

// ChunkRange returns chunk c's half-open range in the flat vector, using
// the same contiguous-split arithmetic as data.Shard.
func (r *Ring) ChunkRange(c int) (lo, hi int) {
	return c * r.flatLen / r.chunks, (c + 1) * r.flatLen / r.chunks
}

// RoundMessages returns the number of point-to-point chunk transfers one
// full reduction round performs (across all members).
func (r *Ring) RoundMessages() int { return 2 * (r.members - 1) * r.chunks }

// RoundBytes returns the total payload one full reduction round moves over
// ring links (8 bytes per float64 element).
func (r *Ring) RoundBytes() int { return 2 * (r.members - 1) * r.flatLen * 8 }

// AllReduce executes member w's part of one reduction round: rows[rlo:rhi)
// are the rows member w contributes, and on return agg holds the ascending-
// order sum of ALL rows (identical bits at every member). Every member must
// run AllReduce concurrently once per round — as goroutines in-process, as
// OS processes over a TCP mesh; rows is member-local state whose row range
// [rlo, rhi) must be fully written before the call (other rows may be nil).
//
// A transport failure surfaces as a typed *transport.PeerError; the caller
// should then Abort its membership so ring neighbors blocked on it fail
// fast instead of deadlocking the round.
func (r *Ring) AllReduce(w int, rows [][]float64, rlo, rhi int, agg []float64) error {
	if r.members == 1 {
		// Degenerate ring: same ascending-row accumulation order as the
		// multi-member path, chunk by chunk.
		for c := 0; c < r.chunks; c++ {
			lo, hi := r.ChunkRange(c)
			for i := lo; i < hi; i++ {
				agg[i] = 0
			}
			for m := range rows {
				row := rows[m]
				for i := lo; i < hi; i++ {
					agg[i] += row[i]
				}
			}
		}
		return nil
	}

	K := r.members
	ep := r.eps[w]
	scratch := r.scratch[w]
	// Reduce-scatter leg: chunk c starts as a zero buffer at member 0 and
	// flows up the ring; each member adds its owned rows in ascending
	// order, so the finished chunk at member K-1 is the ascending-row sum —
	// the fixed reduction order the determinism contract requires. Sends
	// never block on the receiver, so the chunks pipeline freely.
	for c := 0; c < r.chunks; c++ {
		lo, hi := r.ChunkRange(c)
		n := hi - lo
		buf := scratch[:n]
		if w == 0 {
			for i := range buf {
				buf[i] = 0
			}
		} else {
			got, err := ep.Recv(w-1, streamReduce, buf)
			if err != nil {
				return err
			}
			if len(got) != n {
				return fmt.Errorf("pipeline: ring reduce chunk %d carried %d elements, want %d: %w", c, len(got), n, transport.ErrBadFrame)
			}
			buf = got
		}
		for m := rlo; m < rhi; m++ {
			row := rows[m]
			for i := lo; i < hi; i++ {
				buf[i-lo] += row[i]
			}
		}
		if w < K-1 {
			if err := ep.Send(w+1, streamReduce, buf); err != nil {
				return err
			}
		} else {
			copy(agg[lo:hi], buf)
			// Start the all-gather leg at member 0.
			if err := ep.Send(0, streamGather, buf); err != nil {
				return err
			}
		}
	}
	// All-gather leg: fully-reduced chunks flow K-1 -> 0 -> ... -> K-2;
	// every member copies each chunk into its local aggregate.
	if w < K-1 {
		prev := w - 1
		if prev < 0 {
			prev = K - 1
		}
		for c := 0; c < r.chunks; c++ {
			lo, hi := r.ChunkRange(c)
			n := hi - lo
			got, err := ep.Recv(prev, streamGather, scratch[:n])
			if err != nil {
				return err
			}
			if len(got) != n {
				return fmt.Errorf("pipeline: ring gather chunk %d carried %d elements, want %d: %w", c, len(got), n, transport.ErrBadFrame)
			}
			copy(agg[lo:hi], got)
			if w+1 < K-1 {
				if err := ep.Send(w+1, streamGather, got); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Abort withdraws member w from the ring after a failure: its endpoint's
// own rank is marked down with the given cause, so neighbors blocked on
// messages from w fail with a typed error instead of deadlocking, and the
// failure cascades around the ring until every member has returned.
func (r *Ring) Abort(w int, cause error) {
	if r.eps == nil || r.eps[w] == nil {
		return
	}
	ep := r.eps[w]
	ep.Fail(ep.Rank(), cause)
}

// Close returns the ring's scratch buffers to its arena and, when the ring
// owns its in-process fabric, closes the member endpoints. The ring must
// not be used afterwards; Close is idempotent.
func (r *Ring) Close() {
	for w, buf := range r.scratch {
		if buf != nil {
			r.buffers.Put(buf)
			r.scratch[w] = nil
		}
	}
	r.scratch = nil
	if r.ownFab {
		for _, ep := range r.eps {
			if ep != nil {
				ep.Close()
			}
		}
	}
	r.eps = nil
}
