// Package epcgen2 simulates the EPC Class-1 Generation-2 (C1G2) MAC layer:
// 96-bit EPC identifiers with CRC-16, frame-slotted ALOHA inventory with
// the Q-adaptation algorithm, binary tree walking, and C1G2 link timing.
//
// The MAC layer matters to STPP because it sets the per-tag sampling rate:
// with many tags in the reading zone, each tag's phase profile is
// under-sampled (Table 1 / Figure 19 of the paper). Simulating inventory at
// the slot level reproduces that effect from first principles rather than
// assuming a constant read rate.
package epcgen2

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
)

// EPC is a 96-bit Electronic Product Code, the common tag identifier
// length for SGTIN-96 encoded retail tags.
type EPC [12]byte

// NewEPC derives a deterministic EPC from a serial number, in a layout
// loosely following SGTIN-96 (header 0x30).
func NewEPC(serial uint64) EPC {
	var e EPC
	e[0] = 0x30 // SGTIN-96 header
	e[1] = 0x64 // filter/partition filler
	binary.BigEndian.PutUint16(e[2:4], uint16(serial>>48))
	binary.BigEndian.PutUint64(e[4:12], serial)
	return e
}

// RandomEPC draws a random EPC from rng.
func RandomEPC(rng *rand.Rand) EPC {
	var e EPC
	e[0] = 0x30
	for i := 1; i < len(e); i++ {
		e[i] = byte(rng.Intn(256))
	}
	return e
}

// String renders the EPC as uppercase hex, the conventional EPC notation.
func (e EPC) String() string {
	return strings.ToUpper(hex.EncodeToString(e[:]))
}

// ParseEPC parses the hex form produced by String.
func ParseEPC(s string) (EPC, error) {
	var e EPC
	b, err := hex.DecodeString(strings.TrimSpace(s))
	if err != nil {
		return e, fmt.Errorf("epcgen2: bad EPC %q: %w", s, err)
	}
	if len(b) != len(e) {
		return e, fmt.Errorf("epcgen2: EPC %q has %d bytes, want %d", s, len(b), len(e))
	}
	copy(e[:], b)
	return e, nil
}

// Bit returns bit i of the EPC, MSB first (bit 0 is the top bit of byte 0).
// Tree walking descends the EPC bit by bit in this order.
func (e EPC) Bit(i int) int {
	if i < 0 || i >= 96 {
		return 0
	}
	return int(e[i/8]>>(7-uint(i%8))) & 1
}

// CRC16 computes the CRC-16/CCITT-FALSE used by C1G2 (poly 0x1021, init
// 0xFFFF, output complemented) over the EPC, as appended to tag replies.
func (e EPC) CRC16() uint16 {
	return CRC16(e[:])
}

// CRC16 implements the C1G2 CRC-16: polynomial 0x1021, preset 0xFFFF,
// final complement.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return ^crc
}
