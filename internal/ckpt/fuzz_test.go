package ckpt

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/models"
)

// FuzzCkptLoad drives arbitrary checkpoint bodies through the parser. Each
// body is re-sealed with a valid trailer first, so the input gets past the
// seal check and reaches the decoder. The parse must never panic, must
// allocate no more than a constant multiple of the input, and a loaded
// state must survive save→load unchanged (load∘save∘load = load, compared
// by the saved bytes so NaN payloads compare by bits).
func FuzzCkptLoad(f *testing.F) {
	for _, st := range []func() *models.TrainState{sampleState, specialState} {
		var buf bytes.Buffer
		if _, err := Save(&buf, st()); err != nil {
			f.Fatal(err)
		}
		body := buf.Bytes()[:buf.Len()-8]
		flipped := append([]byte(nil), body...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(body)
		f.Add(flipped)
		f.Add(body[:len(body)/3])
		f.Add(append(append([]byte(nil), body...), 0xAA))
	}
	// A checkpoint whose embedded snapshot claims 2^27 values backed by 80
	// bytes.
	var e codec.Encoder
	e.Raw(magic)
	e.U64(120) // step
	e.U64(3)   // epoch
	e.Raw("MLPSNAP1")
	e.Str("rec")
	e.U32(1) // one parameter
	e.Str("w")
	e.U32(1)       // one dim
	e.U32(1 << 27) // dim value
	e.U32(1 << 27) // value count
	for i := 0; i < 10; i++ {
		e.U64(uint64(i))
	}
	f.Add(e.B)

	f.Fuzz(func(t *testing.T, body []byte) {
		raw, _ := codec.Seal(append([]byte(nil), body...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Load(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(raw))+1<<20 {
			t.Fatalf("Load allocated %d bytes for a %d-byte input", alloc, len(raw))
		}
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if _, err := Save(&once, st); err != nil {
			t.Fatalf("Save of a loaded state: %v", err)
		}
		again, err := Load(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("Load of a saved state: %v", err)
		}
		if _, err := Save(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("load∘save∘load differs from load")
		}
	})
}
