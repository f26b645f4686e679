package ckpt

import (
	"errors"
	"math"
	"runtime"
	"testing"
)

// TestRoundTrip: every appender's output reads back exactly through the
// matching Reader method, in sequence, consuming the whole blob.
func TestRoundTrip(t *testing.T) {
	fs := []float64{0, -1.5, math.Inf(1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	var b []byte
	b = AppendU8(b, 0xAB)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, math.MaxUint64-7)
	b = AppendF64(b, math.Pi)
	b = AppendF64(b, math.NaN())
	b = AppendF64s(b, fs)
	b = AppendF64s(b, nil)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "héllo")
	b = AppendString(b, "")

	r := NewReader(b)
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != math.MaxUint64-7 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsNaN(got) {
		t.Errorf("F64 NaN = %v", got)
	}
	got := r.F64s(nil)
	if len(got) != len(fs) {
		t.Fatalf("F64s len = %d, want %d", len(got), len(fs))
	}
	for i := range fs {
		if math.Float64bits(got[i]) != math.Float64bits(fs[i]) {
			t.Errorf("F64s[%d] = %v, want %v", i, got[i], fs[i])
		}
	}
	if got := r.F64s(make([]float64, 9)); len(got) != 0 {
		t.Errorf("empty F64s = %v", got)
	}
	if got := r.Bytes(); string(got) != "\x01\x02\x03" {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "héllo" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left over", r.Len())
	}
}

// TestF64sReusesDst: a destination with enough capacity is filled in
// place rather than reallocated.
func TestF64sReusesDst(t *testing.T) {
	b := AppendF64s(nil, []float64{1, 2, 3})
	dst := make([]float64, 0, 8)
	got := NewReader(b).F64s(dst)
	if len(got) != 3 || &got[0] != &dst[:1][0] {
		t.Errorf("F64s did not decode into the caller's buffer")
	}
}

// TestTruncationIsSticky: a read past the end fails with ErrCorrupt, and
// the first failure sticks — every later read returns the zero value and
// Err keeps reporting the original cause, even once a later read would
// have fit.
func TestTruncationIsSticky(t *testing.T) {
	b := AppendU32(nil, 7)
	b = AppendU8(b, 9)
	for name, read := range map[string]func(r *Reader){
		"u64":    func(r *Reader) { r.U64() },
		"f64":    func(r *Reader) { r.F64() },
		"f64s":   func(r *Reader) { r.F64s(nil) },
		"bytes":  func(r *Reader) { r.Bytes() },
		"string": func(r *Reader) { _ = r.String() },
	} {
		r := NewReader(b)
		read(r)
		first := r.Err()
		if !errors.Is(first, ErrCorrupt) {
			t.Errorf("%s over 5 bytes: err %v, want ErrCorrupt", name, first)
			continue
		}
		if v := r.U8(); v != 0 {
			t.Errorf("%s: U8 after failure = %d, want 0", name, v)
		}
		if v := r.U32(); v != 0 {
			t.Errorf("%s: U32 after failure = %d, want 0", name, v)
		}
		r.Failf("later failure")
		if r.Err() != first {
			t.Errorf("%s: error changed after failure: %v -> %v", name, first, r.Err())
		}
	}
}

// TestFailf: a caller-detected validation failure surfaces through Err as
// ErrCorrupt and stops further decoding.
func TestFailf(t *testing.T) {
	r := NewReader(AppendU32(nil, 42))
	r.Failf("version %d", 3)
	if err := r.Err(); !errors.Is(err, ErrCorrupt) || err.Error() != "ckpt: corrupt checkpoint: version 3" {
		t.Fatalf("err = %v", err)
	}
	if v := r.U32(); v != 0 {
		t.Errorf("U32 after Failf = %d, want 0", v)
	}
}

// TestOversizedCountsDoNotAllocate: an F64s or Bytes count larger than the
// remaining input must fail before allocating anything sized by the count
// — a hostile 0xFFFFFFFF would otherwise ask for 32 GiB.
func TestOversizedCountsDoNotAllocate(t *testing.T) {
	for name, read := range map[string]func(r *Reader) int{
		"f64s":  func(r *Reader) int { return len(r.F64s(nil)) },
		"bytes": func(r *Reader) int { return len(r.Bytes()) },
	} {
		for _, n := range []uint32{17, 1 << 20, math.MaxUint32} {
			blob := append(AppendU32(nil, n), make([]byte, 16)...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := NewReader(blob)
			got := read(r)
			runtime.ReadMemStats(&after)
			if !errors.Is(r.Err(), ErrCorrupt) || got != 0 {
				t.Errorf("%s count %d over 16 bytes: len %d, err %v", name, n, got, r.Err())
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<10 {
				t.Errorf("%s count %d allocated %d bytes", name, n, grew)
			}
		}
	}
}
