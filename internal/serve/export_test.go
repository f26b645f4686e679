package serve

import (
	"testing"

	"repro/internal/wal"
)

// watchRecovered hands fn every log a boot recovers, before its session
// replays it, for the rest of the test. Sessions recover concurrently, so
// fn must be safe for concurrent use.
func watchRecovered(t *testing.T, fn func(*wal.Recovered)) {
	t.Helper()
	recoveredHook = fn
	t.Cleanup(func() { recoveredHook = nil })
}
