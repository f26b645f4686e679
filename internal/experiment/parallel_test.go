package experiment

import (
	"bytes"
	"testing"

	"repro/internal/sched"
)

// render returns the fully rendered table bytes for an experiment run.
func render(t *testing.T, id string, r Runner) []byte {
	t.Helper()
	tab, err := Run(id, r)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelRunnerBitIdentical: repetitions spread over a scheduler
// must render byte-for-byte the same tables as serial execution — per-rep
// seeds are preserved and results are folded in rep order. The serial
// reference runs on a stopped scheduler, where the caller claims every
// rep itself. Covers a micro sweep, a macro box-stat sweep and a case
// study (integer folding).
func TestParallelRunnerBitIdentical(t *testing.T) {
	stopped := sched.New(1)
	stopped.Stop()
	pool := sched.New(4)
	defer pool.Stop()
	for _, id := range []string{"fig13", "fig18", "tab2"} {
		t.Run(id, func(t *testing.T) {
			serial := render(t, id, Runner{Seed: 1, Reps: 3, Quick: true, Group: stopped.NewGroup("serial")})
			parallel := render(t, id, Runner{Seed: 1, Reps: 3, Quick: true, Group: pool.NewGroup("parallel")})
			if !bytes.Equal(serial, parallel) {
				t.Errorf("parallel table diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, parallel)
			}
		})
	}
}

// TestAllExperimentsQuick: every registered experiment must run to a
// non-empty table in quick mode — the smoke gate for the cmd/experiments
// "-run all" path.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, Runner{Seed: 1, Reps: 1, Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatalf("%s render: %v", id, err)
			}
		})
	}
}
