package wire

import (
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.Count(3)
	w.Int(-7)
	w.Varint(math.MinInt64)
	w.Bool(true)
	w.Float64(math.Pi)
	w.String("héllo")
	nan := math.Float32frombits(0x7fc00123)
	w.Float32s([]float32{1, -0, nan})
	r := NewReader(w.Bytes())
	if r.Count(1) != 3 || r.Int() != -7 || r.Int64() != math.MinInt64 || !r.Bool() ||
		r.Float64() != math.Pi || r.String() != "héllo" {
		t.Fatalf("scalar round trip failed: %v", r.Err())
	}
	fs := r.Float32s()
	if len(fs) != 3 || math.Float32bits(fs[2]) != 0x7fc00123 || r.Remaining() != 0 || r.Err() != nil {
		t.Fatalf("floats %v, %d left, err %v", fs, r.Remaining(), r.Err())
	}
}

// TestReaderRejects: every malformed input is a sticky error, never a
// panic or an allocation larger than the input.
func TestReaderRejects(t *testing.T) {
	w := NewWriter(0)
	w.Count(1 << 40)
	if n := NewReader(w.Bytes()).Count(1); n != 0 {
		t.Fatalf("a count beyond the input was accepted: %d", n)
	}
	r := NewReader(w.Bytes())
	if r.Float32s() != nil || r.Err() == nil {
		t.Fatal("a float array beyond the input was accepted")
	}
	w = NewWriter(0)
	w.Varint(math.MaxInt32 + 1)
	if r := NewReader(w.Bytes()); r.Int() != 0 || r.Err() == nil {
		t.Fatal("an int beyond int32 was accepted")
	}
	r = NewReader([]byte{2})
	if r.Bool() || r.Err() == nil {
		t.Fatal("a bool byte of 2 was accepted")
	}
	r = NewReader([]byte{1, 2})
	if r.Float64() != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("truncated word: %v", r.Err())
	}
	if r.Byte() != 0 || r.String() != "" {
		t.Fatal("reads after a failure must return zero values")
	}
	r = NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	if r.Uvarint() != 0 || r.Err() == nil {
		t.Fatal("an overlong uvarint was accepted")
	}
}
