// Package ckpt implements full training checkpoints: the durable,
// digest-sealed form of a models.TrainState. Where models.Snapshot
// captures parameters alone (the training→serving handoff), a checkpoint
// additionally carries optimizer state (momenta and the ApplySchedule
// position), the mixed-precision trainer's loss-scale state, auxiliary
// RNG stream positions, the loader's permutation cursor, and the
// step/epoch counters — everything a resumed run needs to continue
// bit-identically to the uninterrupted run.
//
// The byte format is deterministic (same state, same bytes; no
// timestamps or addresses) and self-verifying: a trailing FNV-1a digest
// over every preceding byte is written at save time and checked BEFORE
// parsing at load time, so a truncated or corrupted checkpoint fails
// loudly — and cannot drive allocations from unverified length fields.
// The whole file, embedded snapshot included, is built by one
// internal/codec Encoder and parsed by one bounds-checked Decoder.
//
// Files are written atomically (temp file + rename within the directory),
// so a crash mid-write leaves at worst a stale temp file, never a
// half-written checkpoint under a valid name; Writer retains the newest
// Keep checkpoints per rank and deletes older ones. Latest and
// LatestComplete recover the resume point, skipping any file that fails
// its digest.
package ckpt

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/codec"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// magic identifies checkpoint files ("MLPCKPT" + format version 1).
const magic = "MLPCKPT1"

// Stateful is implemented by workloads and engines whose full training
// state can round-trip through a checkpoint. internal/core's runner
// detects it by type assertion (like the Err/Params/Close capabilities);
// models.Recommendation and the dist/pipeline engines implement it.
type Stateful interface {
	CaptureTrainState() *models.TrainState
	RestoreTrainState(*models.TrainState) error
}

// Save writes st in the checkpoint format, in one Write, and returns the
// content digest (the hex form of the trailing seal). Identical states
// produce identical bytes and digests.
func Save(w io.Writer, st *models.TrainState) (string, error) {
	if st == nil || st.Params == nil {
		return "", fmt.Errorf("ckpt: save of nil state or state without parameters")
	}
	var e codec.Encoder
	rng := func(s tensor.RNGState) {
		e.U64(s.State)
		e.U64(s.Inc)
		e.F64(s.Spare)
		e.Bool(s.HasSpare)
	}

	e.Raw(magic)
	e.U64(uint64(st.Step))
	e.U64(uint64(st.Epoch))

	// Parameters: the embedded snapshot, byte-for-byte the Snapshot format
	// (it carries its own inner digest; the outer seal covers it too).
	st.Params.Encode(&e)

	// Optimizer states.
	e.U32(uint32(len(st.Opts)))
	for _, o := range st.Opts {
		e.Str(o.Kind)
		e.F64(o.LR)
		e.U64(uint64(o.T))
		e.U32(uint32(len(o.Slots)))
		for _, s := range o.Slots {
			e.F64s(s)
		}
	}

	// Mixed-precision position.
	e.Bool(st.MP != nil)
	if st.MP != nil {
		e.F64(st.MP.Scale)
		e.U64(uint64(st.MP.Good))
		e.U64(st.MP.Steps)
		e.U64(st.MP.Skipped)
		e.U64(st.MP.Growths)
		e.U64(st.MP.Backoffs)
	}

	// Loader position.
	e.Bool(st.Loader != nil)
	if st.Loader != nil {
		e.U32(uint32(len(st.Loader.Order)))
		for _, i := range st.Loader.Order {
			e.U32(uint32(i))
		}
		e.U32(uint32(st.Loader.Pos))
		e.U32(uint32(st.Loader.Epoch))
		rng(st.Loader.RNG)
	}

	// Auxiliary RNG streams.
	e.U32(uint32(len(st.RNGs)))
	for _, r := range st.RNGs {
		e.Str(r.Label)
		rng(r.State)
	}

	// Meta entries (kept sorted by SetMeta; sort defensively so the bytes
	// are deterministic regardless of how the slice was assembled).
	meta := append([]models.MetaEntry(nil), st.Meta...)
	sort.SliceStable(meta, func(i, j int) bool { return meta[i].Key < meta[j].Key })
	e.U32(uint32(len(meta)))
	for _, m := range meta {
		e.Str(m.Key)
		e.Str(m.Value)
	}

	sealed, h := codec.Seal(e.B)
	if _, err := w.Write(sealed); err != nil {
		return "", fmt.Errorf("ckpt: save: %w", err)
	}
	return fmt.Sprintf("%016x", h), nil
}

// Digest returns the content digest Save would seal st with, without
// writing anywhere.
func Digest(st *models.TrainState) (string, error) {
	return Save(io.Discard, st)
}

// Load reads a checkpoint written by Save. The whole input is read and
// its trailing seal verified before any content is parsed; the parse then
// bounds every length field by the verified bytes that remain.
func Load(r io.Reader) (*models.TrainState, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load: %w", err)
	}
	body, err := codec.Open(raw)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load: %w", err)
	}
	d := codec.NewDecoder(body)
	d.Magic(magic)
	st := &models.TrainState{Step: int(d.U64()), Epoch: int(d.U64())}
	if st.Params, err = models.DecodeSnapshot(d); err != nil {
		return nil, fmt.Errorf("ckpt: load: embedded snapshot: %w", err)
	}
	rng := func() tensor.RNGState {
		return tensor.RNGState{State: d.U64(), Inc: d.U64(), Spare: d.F64(), HasSpare: d.U8() != 0}
	}

	// An optimizer state is at least kind length, LR, T and slot count.
	for range d.Count(24) {
		o := opt.State{Kind: d.Str(), LR: d.F64(), T: int(d.U64())}
		o.Slots = make([][]float64, d.Count(4))
		for i := range o.Slots {
			o.Slots[i] = d.F64s()
		}
		st.Opts = append(st.Opts, o)
	}

	if d.U8() != 0 {
		st.MP = &precision.MPState{Scale: d.F64(), Good: int(d.U64()),
			Steps: d.U64(), Skipped: d.U64(), Growths: d.U64(), Backoffs: d.U64()}
	}

	if d.U8() != 0 {
		ls := &data.LoaderState{Order: make([]int, d.Count(4))}
		for i := range ls.Order {
			ls.Order[i] = int(d.U32())
		}
		ls.Pos = int(d.U32())
		ls.Epoch = int(d.U32())
		ls.RNG = rng()
		st.Loader = ls
	}

	// An RNG entry is at least a label length and 25 bytes of state.
	for range d.Count(29) {
		st.RNGs = append(st.RNGs, models.RNGEntry{Label: d.Str(), State: rng()})
	}

	for range d.Count(8) {
		st.Meta = append(st.Meta, models.MetaEntry{Key: d.Str(), Value: d.Str()})
	}

	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: load: %w", err)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("ckpt: load: %d trailing bytes after checkpoint content", d.Len())
	}
	return st, nil
}

// fileName is the canonical checkpoint file name for (step, rank).
func fileName(step, rank int) string {
	return fmt.Sprintf("ckpt-%09d-r%03d.mlpckpt", step, rank)
}

// parseName inverts fileName.
func parseName(name string) (step, rank int, ok bool) {
	var s, r int
	if n, err := fmt.Sscanf(name, "ckpt-%d-r%d.mlpckpt", &s, &r); n == 2 && err == nil {
		return s, r, true
	}
	return 0, 0, false
}

// Writer manages a checkpoint directory: atomic writes plus retention.
type Writer struct {
	dir  string
	keep int
}

// DefaultKeep is the retention depth a zero keep selects.
const DefaultKeep = 3

// NewWriter prepares a checkpoint directory (created if absent). keep is
// the number of newest checkpoints retained per rank (<= 0 selects
// DefaultKeep).
func NewWriter(dir string, keep int) (*Writer, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty checkpoint directory")
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Writer{dir: dir, keep: keep}, nil
}

// Dir returns the managed directory.
func (w *Writer) Dir() string { return w.dir }

// Write persists st for rank atomically — the bytes land in a temp file
// that is renamed into place, so a crash mid-write never leaves a
// half-written checkpoint under a valid name — then applies retention for
// that rank. Returns the final path and the sealed content digest.
func (w *Writer) Write(st *models.TrainState, rank int) (path, digest string, err error) {
	final := filepath.Join(w.dir, fileName(st.Step, rank))
	tmp, err := os.CreateTemp(w.dir, fileName(st.Step, rank)+".tmp-*")
	if err != nil {
		return "", "", fmt.Errorf("ckpt: %w", err)
	}
	digest, err = Save(tmp, st)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", "", fmt.Errorf("ckpt: write %s: %w", final, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return "", "", fmt.Errorf("ckpt: %w", err)
	}
	w.retain(rank)
	return final, digest, nil
}

// retain deletes rank's checkpoints beyond the newest keep. Best-effort:
// retention failures never fail the write that triggered them.
func (w *Writer) retain(rank int) {
	steps, err := rankSteps(w.dir, rank)
	if err != nil {
		return
	}
	for _, s := range steps[:max(0, len(steps)-w.keep)] {
		os.Remove(filepath.Join(w.dir, fileName(s, rank)))
	}
}

// rankSteps lists the steps with a checkpoint file for rank, ascending.
func rankSteps(dir string, rank int) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var steps []int
	for _, e := range ents {
		if s, r, ok := parseName(e.Name()); ok && r == rank {
			steps = append(steps, s)
		}
	}
	sort.Ints(steps)
	return steps, nil
}

// LoadAt loads the checkpoint for (step, rank) from dir.
func LoadAt(dir string, step, rank int) (*models.TrainState, error) {
	f, err := os.Open(filepath.Join(dir, fileName(step, rank)))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Latest returns rank's newest valid checkpoint in dir, or (nil, "", nil)
// when none exists. Files that fail their digest are skipped (a crash may
// have raced retention or corrupted the newest file; the one before it is
// still a correct resume point).
func Latest(dir string, rank int) (*models.TrainState, string, error) {
	steps, err := rankSteps(dir, rank)
	if errors.Is(err, os.ErrNotExist) {
		return nil, "", nil
	}
	if err != nil {
		return nil, "", err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		st, err := LoadAt(dir, steps[i], rank)
		if err == nil {
			return st, filepath.Join(dir, fileName(steps[i], rank)), nil
		}
	}
	return nil, "", nil
}

// LatestComplete returns the highest step at which EVERY rank of a
// world-sized grid has a valid checkpoint in dir — the grid supervisor's
// resume point, where all ranks restart in lockstep. ok is false when no
// complete, valid set exists. Determinism: the scan reads a quiescent
// directory (the failed generation's processes are dead before the
// supervisor respawns), so every worker computes the same step.
func LatestComplete(dir string, world int) (step int, ok bool, err error) {
	steps, err := rankSteps(dir, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		complete := true
		for r := 0; r < world && complete; r++ {
			if _, err := LoadAt(dir, s, r); err != nil {
				complete = false
			}
		}
		if complete {
			return s, true, nil
		}
	}
	return 0, false, nil
}
