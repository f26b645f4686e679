package pipeline

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stpp"
)

// widthGroup returns a group on a private scheduler of the given width,
// stopped when the test ends, so a test can vary the pool width the
// engine's fan-out runs on.
func widthGroup(tb testing.TB, width int) *sched.Group {
	s := sched.New(width)
	tb.Cleanup(s.Stop)
	return s.NewGroup("test")
}

// scenes returns the equivalence fixtures: a library shelf sweep (antenna
// moving) and a conveyor batch (tags moving).
func scenes(t *testing.T) map[string]*scenario.Scene {
	t.Helper()
	lib, err := scenario.NewLibrary(scenario.LibraryOpts{
		BooksPerLevel: 10, Levels: 2, Speed: 0.15, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	shelf, err := lib.ScanLevel(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	conveyor, err := scenario.ConveyorPopulation(8, 0.3, 23)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*scenario.Scene{"library": shelf, "conveyor": conveyor}
}

// sameResult asserts byte-identical localization outcomes: both orders,
// and per-tag EPC, V-zone, X/Y keys and error text.
func sameResult(t *testing.T, want, got *stpp.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.XOrder, got.XOrder) {
		t.Errorf("X order diverged:\n  batch  %v\n  stream %v", want.XOrder, got.XOrder)
	}
	if !reflect.DeepEqual(want.YOrder, got.YOrder) {
		t.Errorf("Y order diverged:\n  batch  %v\n  stream %v", want.YOrder, got.YOrder)
	}
	if len(want.Tags) != len(got.Tags) {
		t.Fatalf("tag count %d vs %d", len(got.Tags), len(want.Tags))
	}
	for i := range want.Tags {
		w, g := want.Tags[i], got.Tags[i]
		if w.EPC != g.EPC {
			t.Errorf("tag %d: EPC %s vs %s", i, g.EPC, w.EPC)
		}
		if w.VZone != g.VZone {
			t.Errorf("tag %d: V-zone %+v vs %+v", i, g.VZone, w.VZone)
		}
		if !xKeyEqual(w.X, g.X) {
			t.Errorf("tag %d: X key %+v vs %+v", i, g.X, w.X)
		}
		if w.Y != g.Y {
			t.Errorf("tag %d: Y key %+v vs %+v", i, g.Y, w.Y)
		}
		werr, gerr := "", ""
		if w.Err != nil {
			werr = w.Err.Error()
		}
		if g.Err != nil {
			gerr = g.Err.Error()
		}
		if werr != gerr {
			t.Errorf("tag %d: err %q vs %q", i, gerr, werr)
		}
	}
}

// xKeyEqual compares X keys treating NaN bottom times as equal.
func xKeyEqual(a, b stpp.XKey) bool {
	if math.IsNaN(a.BottomTime) || math.IsNaN(b.BottomTime) {
		return math.IsNaN(a.BottomTime) == math.IsNaN(b.BottomTime)
	}
	return a == b
}

// TestEngineMatchesBatch: feeding the read log through the engine in small
// chunks — with intermediate snapshots forcing incremental recomputation —
// must land on exactly the batch Localizer result, for every pool width.
func TestEngineMatchesBatch(t *testing.T) {
	for name, s := range scenes(t) {
		t.Run(name, func(t *testing.T) {
			reads, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			loc, err := stpp.NewLocalizer(s.STPPConfig())
			if err != nil {
				t.Fatal(err)
			}
			want, err := loc.LocalizeReads(reads)
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{1, 4} {
				eng := NewFromLocalizer(loc, Options{Group: widthGroup(t, width)})
				for start := 0; start < len(reads); start += 17 {
					end := start + 17
					if end > len(reads) {
						end = len(reads)
					}
					eng.Consume(reads[start:end])
					if start%51 == 0 {
						if _, err := eng.Snapshot(); err != nil {
							t.Fatal(err)
						}
					}
				}
				got, err := eng.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, want, got)
			}
		})
	}
}

// TestRunSimulatorMatchesBatch: driving a live simulator through the
// engine with periodic snapshots produces the same final result as running
// an identically seeded simulator to completion and batch-localizing.
func TestRunSimulatorMatchesBatch(t *testing.T) {
	for name, s := range scenes(t) {
		t.Run(name, func(t *testing.T) {
			reads, err := s.Run() // consumes one simulator instance
			if err != nil {
				t.Fatal(err)
			}
			loc, err := stpp.NewLocalizer(s.STPPConfig())
			if err != nil {
				t.Fatal(err)
			}
			want, err := loc.LocalizeReads(reads)
			if err != nil {
				t.Fatal(err)
			}

			sim, err := s.Simulator()
			if err != nil {
				t.Fatal(err)
			}
			eng := NewFromLocalizer(loc, Options{})
			snapshots := 0
			got, err := eng.RunSimulator(sim, s.Duration, s.Duration/5,
				func(_ float64, _ *stpp.Result) { snapshots++ })
			if err != nil {
				t.Fatal(err)
			}
			if snapshots == 0 {
				t.Error("no intermediate snapshots delivered")
			}
			sameResult(t, want, got)
		})
	}
}

// TestEngineEmptyStream: a snapshot before any reads is an error, matching
// the batch localizer's behavior on an empty read log.
func TestEngineEmptyStream(t *testing.T) {
	s := scenes(t)["conveyor"]
	eng, err := New(s.STPPConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Snapshot(); err == nil {
		t.Error("snapshot over empty stream succeeded")
	}
}
