package deploy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/scenario"
)

// TestShardedCheckpointRestoreEquivalence is the deployment-level
// checkpoint property: at random points of a two-reader aisle stream,
// serialize the whole sharded engine, restore into a fresh one, feed both
// the same suffix, and assert every later stitched snapshot — and every
// later checkpoint — is byte-identical.
func TestShardedCheckpointRestoreEquivalence(t *testing.T) {
	ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	base, err := ms.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := Of(ms)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2; trial++ {
		reads := base
		if trial > 0 {
			reads = perturb(rng, base, 0.05)
		}
		live, err := NewSharded(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var restored *ShardedEngine
		pos, ckpts := 0, 0
		for pos < len(reads) {
			n := 1 + rng.Intn(120)
			if pos+n > len(reads) {
				n = len(reads) - pos
			}
			if err := live.Consume(reads[pos : pos+n]); err != nil {
				t.Fatal(err)
			}
			if restored != nil {
				if err := restored.Consume(reads[pos : pos+n]); err != nil {
					t.Fatal(err)
				}
			}
			pos += n
			if rng.Float64() < 0.25 || pos == len(reads) {
				blob := live.Checkpoint(nil)
				if again := live.Checkpoint(nil); !bytes.Equal(blob, again) {
					t.Fatalf("trial %d pos %d: sharded checkpoint is not byte-stable", trial, pos)
				}
				if restored != nil {
					if rb := restored.Checkpoint(nil); !bytes.Equal(blob, rb) {
						t.Fatalf("trial %d pos %d: restored engine's checkpoint diverged", trial, pos)
					}
				}
				next, err := NewSharded(d, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := next.Restore(blob); err != nil {
					t.Fatalf("trial %d pos %d: restore: %v", trial, pos, err)
				}
				restored = next
				ckpts++
				got, err := restored.Snapshot()
				if err != nil {
					t.Fatalf("trial %d pos %d: restored snapshot: %v", trial, pos, err)
				}
				want, err := live.Snapshot()
				if err != nil {
					t.Fatalf("trial %d pos %d: snapshot: %v", trial, pos, err)
				}
				sameGlobal(t, want, got)
				if t.Failed() {
					t.Fatalf("trial %d: restored snapshot at %d/%d reads diverged", trial, pos, len(reads))
				}
			}
		}
		if ckpts < 2 {
			t.Fatalf("trial %d exercised only %d checkpoints", trial, ckpts)
		}
	}
}

// TestShardedRestoreRejectsMismatch: a checkpoint from one deployment must
// not restore into an engine built for another.
func TestShardedRestoreRejectsMismatch(t *testing.T) {
	ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSharded(Of(ms), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Consume(reads[:500]); err != nil {
		t.Fatal(err)
	}
	blob := se.Checkpoint(nil)

	// A single-reader deployment: wrong shard count.
	other := Deployment{Readers: Of(ms).Readers[:1]}
	oe, err := NewSharded(other, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := oe.Restore(blob); err == nil {
		t.Error("checkpoint restored into a different deployment")
	}

	// Corrupt version byte.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0x7F
	fresh, err := NewSharded(Of(ms), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(bad); err == nil {
		t.Error("corrupt sharded checkpoint restored without error")
	}
}

// TestShardedRestoreRejectsHostileCounts: a real lifecycle checkpoint of
// the portal corpus trace whose trailing counts are rewritten to hostile
// values must fail the restore with ckpt.ErrCorrupt before any count
// sizes an allocation. A finalized-tag count of 0xFFFFFFFF once reached a
// map make() hint unchecked and ended Restore in an unrecoverable
// out-of-memory fatal, taking the daemon down at boot.
func TestShardedRestoreRejectsHostileCounts(t *testing.T) {
	d, tr := goldenTrace(t, "portals")
	se, err := NewSharded(d, Options{Finalize: portalPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Localize(tr.Reads); err != nil {
		t.Fatal(err)
	}
	if len(se.finalOrder) != 0 || len(se.emitted) != 0 {
		t.Fatal("portal replay finalized tags; the trailing-count offsets below assume none")
	}
	blob := se.Checkpoint(nil)
	// The blob ends with the global emission-stream count and the
	// finalized-tag count, both little-endian u32.
	for name, off := range map[string]int{"finalized": len(blob) - 4, "emitted": len(blob) - 8} {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[off:], 0xFFFFFFFF)
		fresh, err := NewSharded(d, Options{Finalize: portalPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(bad); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s count 0xFFFFFFFF: restore error %v, want ckpt.ErrCorrupt", name, err)
		}
	}
}
