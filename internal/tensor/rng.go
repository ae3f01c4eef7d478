package tensor

import "math"

// RNG is a deterministic, splittable pseudo-random number generator based on
// the PCG-XSH-RR scheme. MLPerf requires runs to be reproducible given a
// seed (§4.1: logs record the seed; §2.2.3 studies vary only the seed), so
// all stochasticity in this repository flows through RNG rather than
// math/rand, making results stable across Go releases and platforms.
type RNG struct {
	state uint64
	inc   uint64
	// spare holds a cached second Gaussian sample from the Box-Muller
	// transform, valid when hasSpare is true.
	spare    float64
	hasSpare bool
}

// RNGState is an exported snapshot of an RNG's position in its stream —
// what a training checkpoint (internal/ckpt) persists so a resumed run
// continues drawing exactly the values the uninterrupted run would have.
type RNGState struct {
	State    uint64
	Inc      uint64
	Spare    float64
	HasSpare bool
}

// State captures the generator's current stream position.
func (r *RNG) State() RNGState {
	return RNGState{State: r.state, Inc: r.inc, Spare: r.spare, HasSpare: r.hasSpare}
}

// SetState restores a position captured by State. The next draws are
// bit-identical to what the captured generator would have produced.
func (r *RNG) SetState(st RNGState) {
	r.state = st.State
	r.inc = st.Inc
	r.spare = st.Spare
	r.hasSpare = st.HasSpare
}

// splitmix64 advances a seed-expansion state and returns the next value.
// It is used to initialize PCG state from a single user seed.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes r in place to the stream NewRNG(seed) would
// produce. Hot loops that need a fresh deterministic stream every step
// (e.g. the per-microbatch streams of internal/pipeline) reseed a persistent
// RNG instead of allocating a new one.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	r.state = splitmix64(&sm)
	r.inc = splitmix64(&sm) | 1 // stream must be odd
	r.hasSpare = false
	r.Uint64()
}

// Split derives an independent child generator. The child stream is a pure
// function of the parent seed and the label, so dataset generation, weight
// init, shuffling, and dropout can each own a decorrelated stream while the
// whole run stays reproducible from one root seed.
func (r *RNG) Split(label uint64) *RNG {
	c := &RNG{}
	r.SplitInto(label, c)
	return c
}

// SplitInto writes the stream Split(label) would return into dst without
// allocating — the in-place form of Split for steady-state loops. dst's
// resulting stream is bit-identical to Split(label)'s.
func (r *RNG) SplitInto(label uint64, dst *RNG) {
	sm := r.state ^ (label * 0x9e3779b97f4a7c15)
	dst.state = splitmix64(&sm)
	dst.inc = splitmix64(&sm) | 1
	dst.hasSpare = false
	dst.Uint64()
}

// Uint64 returns the next 64 bits of the stream.
func (r *RNG) Uint64() uint64 {
	// Two PCG-XSH-RR 32-bit outputs concatenated.
	hi := r.next32()
	lo := r.next32()
	return uint64(hi)<<32 | uint64(lo)
}

func (r *RNG) next32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform sample in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard Gaussian sample (Box-Muller, polar form).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int { return r.PermInto(nil, n) }

// PermInto writes a random permutation of [0, n) into p, growing it only
// when its capacity is insufficient, and returns the permutation. The
// random stream — and therefore the permutation — is bit-identical to
// Perm(n); callers that shuffle every epoch (data.Loader) reuse one
// backing array for the whole run.
func (r *RNG) PermInto(p []int, n int) []int {
	if cap(p) < n {
		p = make([]int, n)
	}
	p = p[:n]
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes idx in place.
func (r *RNG) Shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}
