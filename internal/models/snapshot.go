package models

// Parameter snapshots: the training→serving handoff. A finished training
// run's parameters are captured into a Snapshot, serialized to a
// deterministic byte format, and restored into a fresh model for
// forward-only inference (internal/serve) or a resumed run. The format is
// fully deterministic — same parameters, same bytes — and self-verifying:
// a rolling FNV-1a digest over every name, shape, and float64 bit pattern
// (the trajectory-digest construction of internal/grid) is appended at
// write time and checked at read time, so a truncated or corrupted
// snapshot fails loudly instead of silently serving garbage weights.

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/autograd"
	"repro/internal/codec"
)

// snapMagic identifies snapshot files ("MLPSNAP" + format version 1).
const snapMagic = "MLPSNAP1"

// SnapParam is one captured parameter: name, shape, and a copy of the
// float64 values.
type SnapParam struct {
	Name  string
	Shape []int
	Data  []float64
}

// Snapshot is a captured parameter state of one benchmark model.
type Snapshot struct {
	// Benchmark is the benchmark ID the parameters belong to.
	Benchmark string
	// Params holds the captured parameters in model parameter-list order.
	Params []SnapParam
}

// TakeSnapshot deep-copies the current values of params. The copy is
// decoupled from training: a snapshot taken at convergence stays at
// convergence even if the model keeps training.
func TakeSnapshot(benchmark string, params []*autograd.Param) *Snapshot {
	s := &Snapshot{Benchmark: benchmark, Params: make([]SnapParam, len(params))}
	for i, p := range params {
		s.Params[i] = SnapParam{
			Name:  p.Name,
			Shape: append([]int(nil), p.Value.Shape...),
			Data:  append([]float64(nil), p.Value.Data...),
		}
	}
	return s
}

// digest folds the snapshot's semantic content — benchmark ID, parameter
// names, shapes, and exact float64 bit patterns, in order — through
// FNV-1a. Two snapshots share a digest only if they are bit-identical.
func (s *Snapshot) digest() uint64 {
	str := func(h uint64, t string) uint64 {
		return codec.FoldBytes(codec.FoldU64(h, uint64(len(t))), t)
	}
	h := str(codec.FNVOffset, s.Benchmark)
	h = codec.FoldU64(h, uint64(len(s.Params)))
	for _, p := range s.Params {
		h = str(h, p.Name)
		h = codec.FoldU64(h, uint64(len(p.Shape)))
		for _, d := range p.Shape {
			h = codec.FoldU64(h, uint64(d))
		}
		h = codec.FoldU64(h, uint64(len(p.Data)))
		for _, v := range p.Data {
			h = codec.FoldU64(h, math.Float64bits(v))
		}
	}
	return h
}

// Digest renders the snapshot's FNV-1a content digest as a fixed-width hex
// string — the value cross-checked between trainer and server (and logged
// under mlog.KeySnapshotDigest).
func (s *Snapshot) Digest() string { return fmt.Sprintf("%016x", s.digest()) }

// NumValues returns the total number of scalar parameter values captured.
func (s *Snapshot) NumValues() int {
	n := 0
	for _, p := range s.Params {
		n += len(p.Data)
	}
	return n
}

// Save writes the snapshot in the deterministic binary format, in one
// Write:
//
//	magic "MLPSNAP1"
//	benchmark: u32 length + bytes
//	u32 parameter count
//	per parameter: name (u32+bytes), u32 ndims, u32 dims..., u32 count,
//	               count × float64 bits (little-endian)
//	u64 FNV-1a digest of the semantic content (as Digest)
//
// All integers are little-endian. The format contains no timestamps or
// addresses: identical parameters produce identical bytes.
func (s *Snapshot) Save(w io.Writer) error {
	var e codec.Encoder
	s.Encode(&e)
	if _, err := w.Write(e.B); err != nil {
		return fmt.Errorf("models: snapshot save: %w", err)
	}
	return nil
}

// Encode appends the snapshot in the Save format to e. internal/ckpt
// embeds it in a checkpoint this way.
func (s *Snapshot) Encode(e *codec.Encoder) {
	e.Raw(snapMagic)
	e.Str(s.Benchmark)
	e.U32(uint32(len(s.Params)))
	for _, p := range s.Params {
		e.Str(p.Name)
		e.U32(uint32(len(p.Shape)))
		for _, d := range p.Shape {
			e.U32(uint32(d))
		}
		e.F64s(p.Data)
	}
	e.U64(s.digest())
}

// LoadSnapshot reads a snapshot written by Save, recomputes the content
// digest, and rejects any mismatch (truncation, corruption, format drift)
// and any bytes after the trailer.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("models: snapshot load: %w", err)
	}
	d := codec.NewDecoder(raw)
	s, err := DecodeSnapshot(d)
	if err == nil && d.Len() != 0 {
		err = fmt.Errorf("%d trailing bytes after the trailer", d.Len())
	}
	if err != nil {
		return nil, fmt.Errorf("models: snapshot load: %w", err)
	}
	return s, nil
}

// DecodeSnapshot reads one snapshot in the Save format from d and checks
// its content digest. Bytes after the trailer are left in d.
func DecodeSnapshot(d *codec.Decoder) (*Snapshot, error) {
	d.Magic(snapMagic)
	s := &Snapshot{Benchmark: d.Str()}
	// A parameter is at least three u32s: name length, ndims, count.
	s.Params = make([]SnapParam, d.Count(12))
	for i := range s.Params {
		p := &s.Params[i]
		p.Name = d.Str()
		p.Shape = make([]int, d.Count(4))
		for j := range p.Shape {
			p.Shape[j] = int(d.U32())
		}
		p.Data = d.F64s()
	}
	want := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if got := s.digest(); got != want {
		return nil, fmt.Errorf("digest mismatch: content %016x, trailer %016x (corrupted or truncated snapshot)", got, want)
	}
	return s, nil
}

// SaveFile writes the snapshot to a file.
func (s *Snapshot) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("models: snapshot save: %w", err)
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSnapshotFile reads a snapshot from a file.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("models: snapshot load: %w", err)
	}
	defer f.Close()
	return LoadSnapshot(f)
}

// Restore copies the snapshot's values into params, matching snapshot
// entries to parameters positionally and verifying name and shape at each
// position — a snapshot restores only into the architecture it was taken
// from. Gradients are untouched.
func (s *Snapshot) Restore(params []*autograd.Param) error {
	if len(params) != len(s.Params) {
		return fmt.Errorf("models: snapshot restore: model has %d parameters, snapshot %d", len(params), len(s.Params))
	}
	for i, p := range params {
		sp := s.Params[i]
		if p.Name != sp.Name {
			return fmt.Errorf("models: snapshot restore: parameter %d is %q, snapshot has %q", i, p.Name, sp.Name)
		}
		if !shapeEq(p.Value.Shape, sp.Shape) {
			return fmt.Errorf("models: snapshot restore: parameter %q has shape %v, snapshot %v", p.Name, p.Value.Shape, sp.Shape)
		}
		if len(sp.Data) != len(p.Value.Data) {
			return fmt.Errorf("models: snapshot restore: parameter %q has %d values, snapshot %d", p.Name, len(p.Value.Data), len(sp.Data))
		}
		copy(p.Value.Data, sp.Data)
	}
	return nil
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
