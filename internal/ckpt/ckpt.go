// Package ckpt is the byte-stable little-endian encoding used by engine
// checkpoints. It is deliberately tiny: append-style writers over a byte
// slice and an error-sticky Reader whose length-prefixed reads validate
// against the remaining input before allocating, so a CRC-valid but
// hostile payload cannot force a huge allocation.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is wrapped by every Reader decoding failure.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// AppendU8 appends a single byte.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendF64 appends the IEEE-754 bits of v, little-endian. Every NaN is
// written as math.NaN()'s bits: a NaN's payload depends on the operand
// order the compiler picked for the arithmetic that made it, and the same
// state must encode to the same bytes from every build.
func AppendF64(dst []byte, v float64) []byte {
	if v != v {
		v = math.NaN()
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendF64s appends a u32 element count followed by the raw bits of each
// element. The buffer is grown once up front — float arrays are the bulk
// of an engine checkpoint (each tag's profile), so this is the encoding
// hot path.
func AppendF64s(dst []byte, vs []float64) []byte {
	dst = AppendU32(dst, uint32(len(vs)))
	off := len(dst)
	dst = append(dst, make([]byte, 8*len(vs))...)
	b := dst[off:]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return dst
}

// AppendBytes appends a u32 length prefix followed by the bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends a u32 length prefix followed by the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// Reader decodes a checkpoint blob. The first failure sticks: every
// subsequent read returns the zero value, and Err reports the cause.
type Reader struct {
	data []byte
	err  error
}

// NewReader wraps data; the Reader does not copy it.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decoding error, nil if none so far.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
}

// Failf records a caller-detected validation failure (unknown version,
// inconsistent counts) so it surfaces through Err like any decode error.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data) {
		r.fail(what)
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads one float64.
func (r *Reader) F64() float64 {
	b := r.take(8, "f64")
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Count reads a u32 count of what (a plural noun, for the error) whose
// elements take at least size bytes each. It checks the count against
// the remaining input before converting it to int, so a hostile count
// fails the reader instead of sizing an allocation or, on a 32-bit
// build, turning negative. It returns 0 once the reader has failed.
func (r *Reader) Count(size int, what string) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if uint64(n)*uint64(size) > uint64(len(r.data)) {
		r.Failf("%d %s in %d bytes", n, what, len(r.data))
		return 0
	}
	return int(n)
}

// F64s reads a u32-counted float64 slice into dst[:0], growing as needed.
// The count is validated against the remaining input before allocating.
// The elements are decoded in one pass over a single take, not one
// bounds-checked read each — restore speed is what bounds recovery time,
// and float arrays dominate the blob.
func (r *Reader) F64s(dst []float64) []float64 {
	n := r.Count(8, "f64s")
	b := r.take(n*8, "f64 slice")
	if b == nil {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return dst
}

// Bytes reads a u32-length-prefixed byte slice. The returned slice aliases
// the Reader's input.
func (r *Reader) Bytes() []byte {
	return r.take(r.Count(1, "bytes"), "byte slice")
}

// String reads a u32-length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }
