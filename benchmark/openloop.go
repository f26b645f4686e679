package main

import "time"

// spinBefore is how long before a request's due time the sender stops
// sleeping and polls the clock instead. A sleep on the reference VM wakes
// about half a millisecond late at the median; timed from the due time,
// that oversleep would be charged to every request as latency the daemon
// never caused.
const spinBefore = time.Millisecond

// openLoop sends requests on a fixed schedule from one goroutine: request
// i is due at start + i×interval, whether or not earlier requests have
// returned. A request that falls behind schedule — because an earlier one
// stalled — is sent the moment the sender is free, and its latency is
// timed from its due time, so a stall is charged to every request queued
// behind it instead of vanishing from the record (coordinated omission).
// send(i, due) runs request i; the loop stops at n requests, at the
// deadline, or at the first error. It returns how many requests
// completed, their latencies from due time, and how late each was sent.
func openLoop(start time.Time, interval time.Duration, n int, deadline time.Time,
	send func(i int, due time.Time) error) (done int, latency, lateness []time.Duration, err error) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due) - spinBefore; wait > 0 {
			time.Sleep(wait)
		}
		for time.Now().Before(due) {
		}
		sent := time.Now()
		if err := send(i, due); err != nil {
			return done, latency, lateness, err
		}
		latency = append(latency, time.Since(due))
		lateness = append(lateness, sent.Sub(due))
		done++
	}
	return done, latency, lateness, nil
}
