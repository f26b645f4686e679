package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/reader"
)

// Batch record payload (record type 5): the batch's reads back to back,
// each one
//
//	[12 bytes EPC][8 bytes Time][8 bytes Phase][8 bytes RSSI][varint Channel][varint Reader]
//
// with the floats as little-endian IEEE-754 bits and the ints as zigzag
// varints (encoding/binary's signed varint) — 38 bytes for the channels
// and reader IDs a deployment uses. Decoding restores every value bit for
// bit, -0 included, so a recovered batch is the journaled batch exactly.

// minReadLen is the encoded size of a read whose varints take one byte
// each, the smallest a read can be.
const minReadLen = len(reader.TagRead{}.EPC) + 3*8 + 2

// appendBatch appends the batch payload of reads to dst. A read carrying a
// NaN or an infinite float is refused: the trace wire format cannot carry
// it either, so no replay could have produced it.
func appendBatch(dst []byte, reads []reader.TagRead) ([]byte, error) {
	for i := range reads {
		r := &reads[i]
		if !finite(r.Time) || !finite(r.Phase) || !finite(r.RSSI) {
			return dst, fmt.Errorf("read %d: unsupported float in %+v", i, *r)
		}
		dst = append(dst, r.EPC[:]...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Time))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Phase))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.RSSI))
		dst = binary.AppendVarint(dst, int64(r.Channel))
		dst = binary.AppendVarint(dst, int64(r.Reader))
	}
	return dst, nil
}

// decodeBatch parses a batch payload strictly: every read decodes or the
// whole batch is rejected. A short trailing read, a varint that overruns
// the payload, 64 bits or an int, a varint in more bytes than it needs
// and a non-finite float are errors, so a payload that decodes re-encodes
// to exactly its own bytes. An empty payload is an empty batch.
func decodeBatch(p []byte) ([]reader.TagRead, error) {
	if len(p) == 0 {
		return nil, nil
	}
	out := make([]reader.TagRead, 0, len(p)/minReadLen)
	for len(p) > 0 {
		if len(p) < minReadLen {
			return nil, fmt.Errorf("wal: read %d: %d trailing bytes, want at least %d", len(out), len(p), minReadLen)
		}
		var r reader.TagRead
		p = p[copy(r.EPC[:], p):]
		r.Time = math.Float64frombits(binary.LittleEndian.Uint64(p))
		r.Phase = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
		r.RSSI = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
		if !finite(r.Time) || !finite(r.Phase) || !finite(r.RSSI) {
			return nil, fmt.Errorf("wal: read %d: non-finite float in %+v", len(out), r)
		}
		p = p[24:]
		var err error
		if r.Channel, p, err = varint(p); err != nil {
			return nil, fmt.Errorf("wal: read %d: channel: %w", len(out), err)
		}
		if r.Reader, p, err = varint(p); err != nil {
			return nil, fmt.Errorf("wal: read %d: reader: %w", len(out), err)
		}
		out = append(out, r)
	}
	return out, nil
}

// varint decodes the minimal zigzag varint at the start of p and returns
// it with the rest of p.
func varint(p []byte) (int, []byte, error) {
	x, n := binary.Varint(p)
	switch {
	case n == 0:
		return 0, nil, fmt.Errorf("varint overruns the payload")
	case n < 0:
		return 0, nil, fmt.Errorf("varint overflows 64 bits")
	case n > 1 && p[n-1] == 0:
		return 0, nil, fmt.Errorf("varint in %d bytes is not minimal", n)
	case int64(int(x)) != x:
		return 0, nil, fmt.Errorf("varint %d overflows int", x)
	}
	return int(x), p[n:], nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
