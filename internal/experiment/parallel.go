package experiment

import (
	"runtime"
	"sync/atomic"

	"repro/internal/sched"
)

// workers returns the effective repetition worker-pool width.
func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// repMap runs fn for repetitions 0..n-1 on a bounded worker pool and
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
	sched.Default().For(nil, r.workers(), n, func(rep int) {
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
