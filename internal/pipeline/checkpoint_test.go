package pipeline

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
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
		eng := NewFromLocalizer(loc, Options{Group: widthGroup(t, 1+rng.Intn(4))})
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
				next := NewFromLocalizer(loc, Options{Group: widthGroup(t, 1+rng.Intn(4))})
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

// TestCheckpointIndependentOfSnapshotCadence: Checkpoint's bytes are a
// function of the reads consumed, not of when the engine last snapshotted.
// Two engines fed the same reads — one snapshotting at random points, one
// never — write identical checkpoints at every point where both write
// one, in order and with out-of-order reads alike.
func TestCheckpointIndependentOfSnapshotCadence(t *testing.T) {
	s := scenes(t)["conveyor"]
	base, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		reads := base
		if trial%2 == 1 {
			reads = perturb(rng, base, 0.08)
		}
		snapper := NewFromLocalizer(loc, Options{Group: widthGroup(t, 1+rng.Intn(4))})
		quiet := NewFromLocalizer(loc, Options{Group: widthGroup(t, 1+rng.Intn(4))})
		snaps, ckpts := 0, 0
		for pos := 0; pos < len(reads); {
			n := min(1+rng.Intn(97), len(reads)-pos)
			snapper.Consume(reads[pos : pos+n])
			quiet.Consume(reads[pos : pos+n])
			pos += n
			if rng.Float64() < 0.4 {
				if _, err := snapper.Snapshot(); err != nil {
					t.Fatal(err)
				}
				snaps++
			}
			if rng.Float64() < 0.2 || pos == len(reads) {
				if a, b := snapper.Checkpoint(nil), quiet.Checkpoint(nil); !bytes.Equal(a, b) {
					t.Fatalf("trial %d pos %d: checkpoints differ after %d snapshots (%d vs %d bytes)",
						trial, pos, snaps, len(a), len(b))
				}
				ckpts++
			}
		}
		if snaps < 2 || ckpts < 2 {
			t.Fatalf("trial %d exercised %d snapshots and %d checkpoints", trial, snaps, ckpts)
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

// TestRestoreRejectsVZoneOutsideProfile: a CRC-valid checkpoint whose
// cached V-zone lies past its tag's profile must fail the restore. Such a
// blob once restored cleanly and the next Snapshot panicked indexing the
// profile's unwrap curve — in stppd, a panic that kills every session.
func TestRestoreRejectsVZoneOutsideProfile(t *testing.T) {
	s := scenes(t)["conveyor"]
	reads, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, vz := range map[string]stpp.VZone{
		"past the end": {Start: 1 << 20, End: 1<<20 + 10},
		"reversed":     {Start: 10, End: 5},
		"negative":     {Start: -3, End: 5},
	} {
		eng := NewFromLocalizer(loc, Options{})
		if _, err := eng.Localize(reads[:900]); err != nil {
			t.Fatal(err)
		}
		epc := eng.EPCs()[0]
		tr := eng.cached[epc]
		tr.VZone = vz
		eng.cached[epc] = tr
		fresh := NewFromLocalizer(loc, Options{})
		if err := fresh.Restore(eng.Checkpoint(nil)); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s V-zone %+v: restore error %v, want ckpt.ErrCorrupt", name, vz, err)
		}
		if fresh.Tags() != 0 {
			t.Errorf("%s: failed restore left %d tags", name, fresh.Tags())
		}
	}
}

// TestRestoreRejectsDecreasingTimes: Checkpoint sorts every profile
// before it writes one, so a blob holding a profile whose times decrease
// is corrupt and must fail the restore, leaving the engine empty.
func TestRestoreRejectsDecreasingTimes(t *testing.T) {
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
	if _, err := eng.Localize(reads[:900]); err != nil {
		t.Fatal(err)
	}
	p := eng.builder.Profile(eng.EPCs()[0])
	i := len(p.Times) / 2
	if p.Times[i] == p.Times[i+1] {
		t.Fatal("equal neighbouring times; swapping them would not unsort the profile")
	}
	p.Times[i], p.Times[i+1] = p.Times[i+1], p.Times[i]
	fresh := NewFromLocalizer(loc, Options{})
	if err := fresh.Restore(eng.Checkpoint(nil)); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), "times decrease") {
		t.Errorf("restore error %v, want ckpt.ErrCorrupt naming decreasing times", err)
	}
	if fresh.Tags() != 0 || fresh.Reads() != 0 {
		t.Errorf("failed restore left %d tags, %d reads", fresh.Tags(), fresh.Reads())
	}
}
