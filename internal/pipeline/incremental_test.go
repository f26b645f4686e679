package pipeline

import (
	"math/rand"
	"testing"

	"repro/internal/reader"
	"repro/internal/stpp"
)

// perturb returns a copy of reads with a fraction of them delayed past a
// few successors — the out-of-order arrivals a real multi-antenna ingest
// produces, which force the builder to re-sort profiles and the engine to
// rebuild its resumable detection state.
func perturb(rng *rand.Rand, reads []reader.TagRead, frac float64) []reader.TagRead {
	out := append([]reader.TagRead(nil), reads...)
	for i := 0; i+1 < len(out); i++ {
		if rng.Float64() < frac {
			j := i + 1 + rng.Intn(5)
			if j >= len(out) {
				j = len(out) - 1
			}
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// TestSnapshotEquivalenceProperty drives random batch sizes × random
// snapshot cadences × out-of-order reads through the engine and asserts
// every intermediate snapshot — not just the final one — is byte-identical
// to a fresh batch LocalizeReads over the same prefix. This is the
// incremental re-detection path's contract: segment caches, resumable DTW
// columns, the out-of-order rebuild, and the engine's reusable snapshot
// scratch must never be observable in the results.
func TestSnapshotEquivalenceProperty(t *testing.T) {
	s := scenes(t)["conveyor"]
	base, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1234))
	// Sweep the scheduler width alongside cadence and batch size: a lone
	// worker, the reference box's two, and eight. Which worker detects
	// which tag must be invisible in the results at every width.
	widths := []int{1, 2, 8}
	for trial := 0; trial < 6; trial++ {
		reads := base
		if trial%2 == 1 {
			reads = perturb(rng, base, 0.08)
		}
		eng := NewFromLocalizer(loc, Options{Group: widthGroup(t, widths[trial%len(widths)])})
		pos, snaps := 0, 0
		for pos < len(reads) {
			n := 1 + rng.Intn(97)
			if pos+n > len(reads) {
				n = len(reads) - pos
			}
			eng.Consume(reads[pos : pos+n])
			pos += n
			if rng.Float64() < 0.25 || pos == len(reads) {
				got, err := eng.Snapshot()
				if err != nil {
					t.Fatalf("trial %d pos %d: %v", trial, pos, err)
				}
				want, err := loc.LocalizeReads(reads[:pos])
				if err != nil {
					t.Fatalf("trial %d pos %d: batch: %v", trial, pos, err)
				}
				sameResult(t, want, got)
				if t.Failed() {
					t.Fatalf("trial %d: snapshot at %d/%d reads diverged from batch",
						trial, pos, len(reads))
				}
				snaps++
			}
		}
		if snaps < 2 {
			t.Fatalf("trial %d exercised only %d snapshots", trial, snaps)
		}
	}
}

// TestSnapshotScratchReuse: the engine reuses its Tags scratch across
// snapshots (the documented contract), and a retained copy of an earlier
// snapshot's content is unaffected by later ones.
func TestSnapshotScratchReuse(t *testing.T) {
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
	eng.Consume(reads[:len(reads)/2])
	first, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]stpp.TagResult(nil), first.Tags...)

	eng.Consume(reads[len(reads)/2:])
	second, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if &first.Tags[0] != &second.Tags[0] {
		t.Error("snapshot Tags scratch was not reused")
	}
	want, err := loc.LocalizeReads(reads[:len(reads)/2])
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, &stpp.Result{Tags: kept, XOrder: first.XOrder, YOrder: first.YOrder})
}
