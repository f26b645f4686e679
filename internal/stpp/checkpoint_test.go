package stpp_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/stpp"
)

// TestDetectStateCheckpointRecomputes: a state restored from its four
// counters over the same profile prefix carries on exactly like the state
// that wrote them — same V-zone and valley window on every later prefix,
// same next checkpoint — although none of its segments, DTW columns or
// curves were journaled.
func TestDetectStateCheckpointRecomputes(t *testing.T) {
	loc, ps := incrementalFixture(t)
	det := loc.Detector()
	rise := loc.Config().YRiseWindow
	rng := rand.New(rand.NewSource(3))
	for pi, full := range ps {
		live := det.NewDetectState()
		var restored *stpp.DetectState
		n := 0
		for n < full.Len() {
			n = min(n+1+rng.Intn(120), full.Len())
			p := full.Slice(0, n)
			want, wantErr := det.DetectIncremental(live, p)
			_, wantWin := live.ValleyWindow(p, want, rise)
			if restored != nil {
				got, gotErr := det.DetectIncremental(restored, p)
				_, gotWin := restored.ValleyWindow(p, got, rise)
				if got != want || (gotErr == nil) != (wantErr == nil) || !slices.Equal(gotWin, wantWin) {
					t.Fatalf("profile %d n=%d: restored state diverged: %+v (%v) vs %+v (%v)",
						pi, n, got, gotErr, want, wantErr)
				}
				if rb, lb := restored.AppendCheckpoint(nil), live.AppendCheckpoint(nil); !bytes.Equal(rb, lb) {
					t.Fatalf("profile %d n=%d: checkpoints diverged", pi, n)
				}
			}
			blob := live.AppendCheckpoint(nil)
			restored = det.NewDetectState()
			r := ckpt.NewReader(blob)
			if err := restored.RestoreCheckpoint(r, p); err != nil || r.Len() != 0 {
				t.Fatalf("profile %d n=%d: restore: %v (%d bytes left)", pi, n, err, r.Len())
			}
			if again := restored.AppendCheckpoint(nil); !bytes.Equal(again, blob) {
				t.Fatalf("profile %d n=%d: restored state checkpoints differently", pi, n)
			}
		}
	}
}

// TestDetectStateRestoreRejectsCounters: counters the restored profile or
// its segmentation cannot back — coverage past the profile, more aligner
// columns than segments, a tail base past the columns — fail the restore
// with ckpt.ErrCorrupt instead of indexing past the profile later.
func TestDetectStateRestoreRejectsCounters(t *testing.T) {
	loc, ps := incrementalFixture(t)
	det := loc.Detector()
	p := ps[0]
	st := det.NewDetectState()
	if _, err := det.DetectIncremental(st, p); err != nil {
		t.Fatal(err)
	}
	r := ckpt.NewReader(st.AppendCheckpoint(nil))
	n, cols, base, uLen := r.U64(), r.U64(), r.U64(), r.U64()
	if n != uint64(p.Len()) || uLen != uint64(p.Len()) || cols == 0 {
		t.Fatalf("unexpected counters n=%d cols=%d base=%d uLen=%d for %d samples", n, cols, base, uLen, p.Len())
	}
	for name, c := range map[string][4]uint64{
		"segmented past the profile": {n + 1, cols, base, uLen},
		"unwrapped past the profile": {n, cols, base, uLen + 1},
		"columns past the segments":  {n, cols + 1, base, uLen},
		"base past the columns":      {n, cols, cols + 1, uLen},
		"wrapped coverage":           {1 << 63, cols, base, uLen},
	} {
		var blob []byte
		for _, v := range c {
			blob = ckpt.AppendU64(blob, v)
		}
		if err := det.NewDetectState().RestoreCheckpoint(ckpt.NewReader(blob), p); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: restore error %v, want ckpt.ErrCorrupt", name, err)
		}
	}
}
