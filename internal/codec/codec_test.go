package codec

import (
	"math"
	"testing"
)

// TestRoundTrip encodes one value of every kind and decodes it back bit
// for bit, including float bit patterns a canonicalising codec would lose.
func TestRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	var e Encoder
	e.Raw("MAGIC")
	e.U8(7)
	e.Bool(true)
	e.U32(1 << 31)
	e.U64(math.MaxUint64)
	e.F64(math.Copysign(0, -1))
	e.Str("name")
	e.F64s([]float64{nan, math.Inf(-1), math.Float64frombits(1)})

	d := NewDecoder(e.B)
	d.Magic("MAGIC")
	if d.U8() != 7 || d.U8() != 1 || d.U32() != 1<<31 || d.U64() != math.MaxUint64 {
		t.Fatal("integer round trip failed")
	}
	if v := d.F64(); math.Float64bits(v) != 1<<63 {
		t.Fatalf("-0 came back as %016x", math.Float64bits(v))
	}
	if s := d.Str(); s != "name" {
		t.Fatalf("string came back as %q", s)
	}
	f := d.F64s()
	want := []uint64{0x7ff8000000000001, math.Float64bits(math.Inf(-1)), 1}
	for i, w := range want {
		if math.Float64bits(f[i]) != w {
			t.Fatalf("float %d came back as %016x, want %016x", i, math.Float64bits(f[i]), w)
		}
	}
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", d.Err(), d.Len())
	}
}

// TestDecoderBounds checks that a count larger than the remaining bytes
// fails before allocating, and that the failure is sticky.
func TestDecoderBounds(t *testing.T) {
	var e Encoder
	e.U32(1 << 27) // claims 1 GiB of float64s
	e.U64(42)      // backed by 8 bytes
	d := NewDecoder(e.B)
	if f := d.F64s(); f != nil || d.Err() == nil {
		t.Fatalf("F64s = %d values, err %v; want nil and an error", len(f), d.Err())
	}
	if d.U64() != 0 || d.Str() != "" || d.Count(1) != 0 {
		t.Fatal("reads after a failure returned data")
	}

	d = NewDecoder([]byte("MLPX"))
	d.Magic("MLPY")
	if d.Err() == nil {
		t.Fatal("wrong magic accepted")
	}
}

// TestSealOpen checks that Open accepts exactly what Seal produced and
// rejects any flipped byte or truncation.
func TestSealOpen(t *testing.T) {
	raw, h := Seal([]byte("payload"))
	if h != FoldBytes(FNVOffset, "payload") {
		t.Fatalf("seal %016x is not the FNV-1a of the body", h)
	}
	if body, err := Open(raw); err != nil || string(body) != "payload" {
		t.Fatalf("Open = %q, %v", body, err)
	}
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 1
		if _, err := Open(bad); err == nil {
			t.Errorf("Open accepted byte %d flipped", i)
		}
	}
	for n := 0; n < len(raw); n++ {
		if _, err := Open(raw[:n]); err == nil {
			t.Errorf("Open accepted a %d-byte truncation", n)
		}
	}
}
