//go:build !race

package main

// raceEnabled reports that the tests run under the race detector, which
// makes sync.Pool drop items at random on purpose.
const raceEnabled = false
