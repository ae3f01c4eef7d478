// Package codec is the one byte codec behind the repo's sealed files and
// digests: the MLPSNAP1 parameter snapshot (internal/models), the MLPCKPT1
// training checkpoint (internal/ckpt), the grid trajectory digest
// (internal/grid) and the TCP dial jitter (internal/transport).
//
// It has three parts. FoldU64 and FoldBytes are the single FNV-1a 64
// implementation.
// Encoder appends little-endian values to a byte slice, so a whole file is
// built in memory and written with one Write. Decoder parses a byte slice
// with a sticky error and bounds every length field by the bytes that
// remain before it allocates, so a corrupt count cannot demand memory the
// input does not back. Seal and Open add and check a trailing FNV-1a seal
// over every preceding byte.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// FNVOffset is the FNV-1a 64 offset basis: the digest of no bytes.
const FNVOffset uint64 = 14695981039346656037

const fnvPrime uint64 = 1099511628211

// FoldU64 folds v's eight little-endian bytes into h.
func FoldU64(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = (h ^ (v>>s)&0xFF) * fnvPrime
	}
	return h
}

// FoldBytes folds every byte of b into h.
func FoldBytes[T ~string | ~[]byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

// Encoder appends little-endian values to B. Lengths are written as u32.
type Encoder struct {
	B []byte
}

// Raw appends s without a length prefix (a magic string).
func (e *Encoder) Raw(s string) { e.B = append(e.B, s...) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.B = append(e.B, v) }

// Bool appends 1 for true and 0 for false.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends v little-endian.
func (e *Encoder) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends v little-endian.
func (e *Encoder) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// F64 appends v's IEEE-754 bit pattern, so NaN payloads, signed zeros and
// subnormals survive unchanged.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a u32 length and the bytes of s.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.Raw(s)
}

// F64s appends a u32 count and the bit pattern of every value.
func (e *Encoder) F64s(f []float64) {
	e.U32(uint32(len(f)))
	e.B = slices.Grow(e.B, 8*len(f))
	for _, v := range f {
		e.B = binary.LittleEndian.AppendUint64(e.B, math.Float64bits(v))
	}
}

// Seal appends the FNV-1a 64 digest of b, little-endian, and returns the
// sealed slice and the digest.
func Seal(b []byte) ([]byte, uint64) {
	h := FoldBytes(FNVOffset, b)
	return binary.LittleEndian.AppendUint64(b, h), h
}

// Open checks the trailing seal Seal appended to raw and returns the body
// before it. The seal is checked before any of the body is parsed.
func Open(raw []byte) ([]byte, error) {
	if len(raw) < 8 {
		return nil, fmt.Errorf("codec: %d bytes cannot hold a seal", len(raw))
	}
	body := raw[:len(raw)-8]
	if h, want := FoldBytes(FNVOffset, body), binary.LittleEndian.Uint64(raw[len(body):]); h != want {
		return nil, fmt.Errorf("digest mismatch: content %016x, trailer %016x (corrupted or truncated input)", h, want)
	}
	return body, nil
}

// Decoder parses the byte slice it was made with. The first failure is
// sticky: every later read returns a zero value, and Err reports it.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of bytes not yet read.
func (d *Decoder) Len() int { return len(d.b) }

// fail records a failure unless one is already recorded.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes, or nil after a failure or when fewer than
// n remain.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.fail("codec: truncated input (want %d bytes, have %d)", n, len(d.b))
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// Magic consumes len(want) bytes and fails unless they equal want.
func (d *Decoder) Magic(want string) {
	if b := d.take(len(want)); b != nil && string(b) != want {
		d.fail("bad magic %q (want %q)", b, want)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian u32.
func (d *Decoder) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian u64.
func (d *Decoder) U64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a u32 element count and fails unless count elements of at
// least size bytes each fit in what remains, so the count can size an
// allocation safely.
func (d *Decoder) Count(size int) int {
	n := int(d.U32())
	if d.err == nil && n > len(d.b)/size {
		d.fail("codec: count %d of %d-byte elements exceeds the %d bytes left", n, size, len(d.b))
		return 0
	}
	return n
}

// Str reads a u32 length and that many bytes.
func (d *Decoder) Str() string { return string(d.take(int(d.U32()))) }

// F64s reads a u32 count and that many float64 bit patterns.
func (d *Decoder) F64s() []float64 {
	n := d.Count(8)
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
