package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must inflate the latency of every request
// queued behind the stall, not just the one it stalled on: the requests
// due during the stall are timed from their due times.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 10 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newConn(srv.URL)
	const interval = 2 * time.Millisecond
	start := time.Now()
	n, lat, late, err := openLoop(start, interval, 200, start.Add(time.Minute), func(i int, due time.Time) error {
		return c.do("GET", "/", nil, nil)
	})
	if err != nil || n != 200 {
		t.Fatalf("sent %d, err %v", n, err)
	}
	// About stall/interval requests fell due while the 10th was stalled.
	var inflated int
	for i := 10; i < len(lat); i++ {
		if lat[i] > stall/4 {
			inflated++
		}
	}
	if want := int(stall/interval) / 2; inflated < want {
		t.Errorf("%d requests after the stall took over %v; want at least %d", inflated, stall/4, want)
	}
	if lat[9] < stall {
		t.Errorf("the stalled request took %v, want over %v", lat[9], stall)
	}
	if late[10] < stall/2 {
		t.Errorf("the request due right after the stall was sent %v late; want about %v", late[10], stall)
	}
	for i := 0; i < 9; i++ {
		if lat[i] > stall/4 {
			t.Errorf("request %d before the stall took %v", i, lat[i])
		}
	}
}

func TestOpenLoopStopsAtDeadline(t *testing.T) {
	start := time.Now()
	n, _, _, err := openLoop(start, 10*time.Millisecond, 1000, start.Add(55*time.Millisecond), func(int, time.Time) error { return nil })
	if err != nil || n != 6 {
		t.Errorf("sent %d (err %v); want the 6 requests due before the deadline", n, err)
	}
}
