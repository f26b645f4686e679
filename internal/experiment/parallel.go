package experiment

import (
	"sync/atomic"

	"repro/internal/sched"
)

// repMap runs fn for repetitions 0..n-1 on the runner's scheduler and
// returns the per-rep results in repetition order. Every fn derives all of
// its randomness from the rep index alone (seeds of the form
// Seed + rep·prime), so results are independent of scheduling; callers fold
// the ordered slice exactly as the old serial loops did, which keeps every
// floating-point accumulation — and therefore every rendered table —
// bit-identical to serial execution. On failure the lowest-rep error wins,
// matching the error a serial loop would have surfaced first.
func repMap[T any](r Runner, n int, fn func(rep int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var failed atomic.Bool
	g := r.Group
	if g == nil {
		g = sched.Default().NewGroup("experiment")
	}
	g.For(n, func(rep int) {
		if failed.Load() {
			return // a rep already failed; the run is doomed
		}
		var err error
		out[rep], err = fn(rep)
		if err != nil {
			errs[rep] = err
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
