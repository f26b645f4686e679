package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/stpp"
)

// TestCheckpointRestoreEquivalenceProperty drives random batch sizes ×
// random checkpoint cadences × out-of-order reads and asserts the full
// checkpoint contract:
//
//   - Checkpoint is byte-stable: serializing the same state twice yields
//     identical bytes.
//   - Restore(checkpoint) + replay(suffix) is indistinguishable from the
//     engine that never checkpointed: every later snapshot AND every later
//     checkpoint of the restored engine is byte-identical to the original's.
//   - The final restored state matches a fresh batch LocalizeReads.
func TestCheckpointRestoreEquivalenceProperty(t *testing.T) {
	s := scenes(t)["conveyor"]
	base, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 4; trial++ {
		reads := base
		if trial%2 == 1 {
			reads = perturb(rng, base, 0.08)
		}
		eng := NewFromLocalizer(loc, Options{Workers: 1 + rng.Intn(4)})
		var restored *Engine // follows eng from the latest checkpoint on
		pos, ckpts := 0, 0
		for pos < len(reads) {
			n := 1 + rng.Intn(97)
			if pos+n > len(reads) {
				n = len(reads) - pos
			}
			eng.Consume(reads[pos : pos+n])
			if restored != nil {
				restored.Consume(reads[pos : pos+n])
			}
			pos += n
			if rng.Float64() < 0.3 || pos == len(reads) {
				blob := eng.Checkpoint(nil)
				if again := eng.Checkpoint(nil); !bytes.Equal(blob, again) {
					t.Fatalf("trial %d pos %d: checkpoint encoding is not byte-stable", trial, pos)
				}
				if restored != nil {
					if rb := restored.Checkpoint(nil); !bytes.Equal(blob, rb) {
						t.Fatalf("trial %d pos %d: restored engine's next checkpoint diverged (%d vs %d bytes)",
							trial, pos, len(rb), len(blob))
					}
				}
				next := NewFromLocalizer(loc, Options{Workers: 1 + rng.Intn(4)})
				if err := next.Restore(blob); err != nil {
					t.Fatalf("trial %d pos %d: restore: %v", trial, pos, err)
				}
				restored = next
				ckpts++
				got, err := restored.Snapshot()
				if err != nil {
					t.Fatalf("trial %d pos %d: restored snapshot: %v", trial, pos, err)
				}
				want, err := eng.Snapshot()
				if err != nil {
					t.Fatalf("trial %d pos %d: snapshot: %v", trial, pos, err)
				}
				sameResult(t, want, got)
				if t.Failed() {
					t.Fatalf("trial %d: restored snapshot at %d/%d reads diverged", trial, pos, len(reads))
				}
			}
		}
		if ckpts < 2 {
			t.Fatalf("trial %d exercised only %d checkpoints", trial, ckpts)
		}
		want, err := loc.LocalizeReads(reads)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got)
		if t.Failed() {
			t.Fatalf("trial %d: final restored state diverged from batch replay", trial)
		}
	}
}

// TestRestoreRejectsCorruptCheckpoint: a damaged blob must error and leave
// the engine empty but usable, never half-restored.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	s := scenes(t)["conveyor"]
	reads, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewFromLocalizer(loc, Options{})
	eng.Consume(reads)
	blob := eng.Checkpoint(nil)

	for name, mangle := range map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)-7] },
		"bad version": func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xFF; return c },
		"trailing":    func(b []byte) []byte { return append(append([]byte(nil), b...), 0xAB) },
	} {
		fresh := NewFromLocalizer(loc, Options{})
		if err := fresh.Restore(mangle(blob)); err == nil {
			t.Errorf("%s checkpoint restored without error", name)
		}
		if got := fresh.Reads(); got != 0 {
			t.Errorf("%s: %d reads survive a failed restore", name, got)
		}
		// The engine must still work from empty.
		fresh.Consume(reads[:100])
		if _, err := fresh.Snapshot(); err != nil {
			t.Errorf("%s: engine unusable after failed restore: %v", name, err)
		}
	}
}

// TestRestoreRoundTripCounts: the trivial fields — read count, tag count —
// must survive a round trip exactly.
func TestRestoreRoundTripCounts(t *testing.T) {
	s := scenes(t)["conveyor"]
	reads, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewFromLocalizer(loc, Options{})
	eng.Consume(reads[:777])
	blob := eng.Checkpoint(nil)
	back := NewFromLocalizer(loc, Options{})
	if err := back.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if back.Reads() != 777 {
		t.Errorf("restored %d reads, want 777", back.Reads())
	}
	if back.Tags() != eng.Tags() {
		t.Errorf("restored %d tags, want %d", back.Tags(), eng.Tags())
	}
}

// TestRestoreRejectsHostileCounts: the trailing section counts of a
// CRC-valid but hostile blob must fail the restore before they size an
// allocation. A finalized-tag count of 0xFFFFFFFF once reached a map
// make() hint unchecked and killed the process with an unrecoverable
// out-of-memory fatal — at boot, for every session. A non-zero
// emission-stream count is corrupt too: shard engines never emit.
func TestRestoreRejectsHostileCounts(t *testing.T) {
	s := scenes(t)["conveyor"]
	reads, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewFromLocalizer(loc, Options{})
	eng.Consume(reads[:500])
	blob := eng.Checkpoint(nil)
	// The blob ends with the emission-stream count and the (empty, with
	// the lifecycle off) finalized-tag count, both little-endian u32.
	for name, off := range map[string]int{"finalized": len(blob) - 4, "emitted": len(blob) - 8} {
		for _, n := range []uint32{1, 0xFFFFFFFF} {
			bad := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint32(bad[off:], n)
			fresh := NewFromLocalizer(loc, Options{})
			if err := fresh.Restore(bad); !errors.Is(err, ckpt.ErrCorrupt) {
				t.Errorf("%s count %#x: restore error %v, want ckpt.ErrCorrupt", name, n, err)
			}
			if fresh.Reads() != 0 || fresh.Tags() != 0 {
				t.Errorf("%s count %#x: failed restore left %d reads, %d tags", name, n, fresh.Reads(), fresh.Tags())
			}
		}
	}
}
