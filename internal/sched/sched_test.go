package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

// TestForResultSlots checks the deterministic result-slot contract: every
// index runs exactly once and its write is visible to the caller.
func TestForResultSlots(t *testing.T) {
	s := New(4)
	defer s.Stop()
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000} {
		out := make([]int, n)
		s.For(nil, n, func(i int) { out[i] = i*i + 1 })
		for i, v := range out {
			if v != i*i+1 {
				t.Fatalf("n=%d: slot %d = %d, want %d", n, i, v, i*i+1)
			}
		}
	}
}

// TestForBlocked checks that ForRuns claims whole blocks off one cursor:
// every run starts on a block boundary and spans the full block, or the
// remainder up to n, and the runs cover every index exactly once.
func TestForBlocked(t *testing.T) {
	s := New(3)
	defer s.Stop()
	const n = 257
	for _, block := range []int{1, 2, 7, 64, 1000} {
		var hits [n]atomic.Int32
		s.ForRuns(nil, n, block, func(lo, hi int) {
			if lo%block != 0 || hi != min(lo+block, n) {
				t.Errorf("block=%d: run [%d,%d) is not one claimed block", block, lo, hi)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("block=%d: index %d ran %d times", block, i, got)
			}
		}
	}
}

// TestNestedFor runs For from inside For tasks — the shard-snapshot →
// per-tag-fill shape — and must complete without deadlock even when the
// pool is narrower than the nesting fan-out. Only the participating
// caller guarantees progress here: every worker may be inside an outer
// index, waiting on an inner job nobody else will join.
func TestNestedFor(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			s := New(width)
			defer s.Stop()
			var total atomic.Int64
			s.For(nil, 8, func(i int) {
				s.For(nil, 50, func(j int) { total.Add(1) })
			})
			if got := total.Load(); got != 400 {
				t.Fatalf("nested For ran %d inner indices, want 400", got)
			}
		})
	}
}

// TestGoRunsOnce: spawned tasks run exactly once each, concurrently with
// for-jobs.
func TestGoRunsOnce(t *testing.T) {
	s := New(3)
	defer s.Stop()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		s.Go(nil, func() { ran.Add(1); wg.Done() })
	}
	wg.Wait()
	if got := ran.Load(); got != 100 {
		t.Fatalf("spawned tasks ran %d times, want 100", got)
	}
}

// TestGoroutineReuse is the satellite regression: scheduling thousands of
// For calls must not spawn goroutines per call the way the old par.For
// did (workers goroutines per invocation).
func TestGoroutineReuse(t *testing.T) {
	s := New(4)
	defer s.Stop()
	s.For(nil, 16, func(int) {}) // warm the pool up
	before := runtime.NumGoroutine()
	for k := 0; k < 2000; k++ {
		s.For(nil, 16, func(int) {})
	}
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew %d -> %d across 2000 For calls", before, after)
	}
}

// TestFairness: a small group's work submitted behind an enormous group's
// backlog must not wait for the backlog to drain. With one worker, strict
// FIFO would run all big tasks first; the fairness pick must interleave
// the small group in long before the backlog empties.
func TestFairness(t *testing.T) {
	s := New(1)
	defer s.Stop()
	big := s.NewGroup("big")
	small := s.NewGroup("small")

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
		wg.Done()
	}
	// Stall the worker so the queue builds up deterministically.
	gate := make(chan struct{})
	wg.Add(1)
	s.Go(big, func() { <-gate; wg.Done() })
	for i := 0; i < 50; i++ {
		wg.Add(1)
		s.Go(big, func() { record("big") })
	}
	wg.Add(1)
	s.Go(small, func() { record("small") })
	close(gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, tag := range order {
		if tag == "small" {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("small group task never ran")
	}
	// The fairness pick should run the small task near the front: the big
	// group has a worker in flight after its first task, so the small
	// group (0 in flight) wins the next pick.
	if pos > 5 {
		t.Fatalf("small group ran at position %d of %d, after most of the backlog", pos, len(order))
	}
}

// TestForRepostedTicketJoins: the ticket a joining worker re-posts to the
// group FIFO must not strand the job — the second worker picks it up (or
// the caller finishes alone) even when every index is slow.
func TestForRepostedTicketJoins(t *testing.T) {
	s := New(2)
	defer s.Stop()
	var inner atomic.Int64
	s.For(nil, 64, func(i int) {
		inner.Add(1)
		time.Sleep(50 * time.Microsecond)
	})
	if inner.Load() != 64 {
		t.Fatalf("for-job ran %d of 64", inner.Load())
	}
}

// TestStopDrains: Stop terminates workers; already-submitted tasks ran.
func TestStopDrains(t *testing.T) {
	s := New(2)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		s.Go(nil, func() { ran.Add(1); wg.Done() })
	}
	wg.Wait()
	s.Stop()
	if ran.Load() != 20 {
		t.Fatalf("ran %d of 20 before Stop", ran.Load())
	}
}

// TestConcurrentSubmitters hammers the scheduler from many goroutines at
// once — the -race job's real target.
func TestConcurrentSubmitters(t *testing.T) {
	s := New(4)
	defer s.Stop()
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grp := s.NewGroup("g")
			for k := 0; k < 50; k++ {
				out := make([]int64, 20)
				grp.For(len(out), func(i int) { out[i] = int64(i) })
				for i, v := range out {
					if v != int64(i) {
						t.Errorf("slot %d = %d", i, v)
						return
					}
					total.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if want := int64(8 * 50 * 20); total.Load() != want {
		t.Fatalf("verified %d slots, want %d", total.Load(), want)
	}
}

// TestForRunsCoverage checks the [lo, hi) run contract across the edge
// shapes blocked detection produces: n not a multiple of block, block
// larger than n, and n of zero and one. Every index must be covered
// exactly once by non-empty runs no longer than block.
func TestForRunsCoverage(t *testing.T) {
	s := New(3)
	defer s.Stop()
	g := s.NewGroup("runs")
	for _, n := range []int{0, 1, 5, 64, 257} {
		for _, block := range []int{1, 2, 7, 64, 1000} {
			hits := make([]atomic.Int32, n)
			g.ForRuns(n, block, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("n=%d block=%d: empty run [%d,%d)", n, block, lo, hi)
					return
				}
				if hi-lo > block {
					t.Errorf("n=%d block=%d: run [%d,%d) longer than block", n, block, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d block=%d: index %d covered %d times", n, block, i, got)
				}
			}
		}
	}
}

// TestForBlockedEdges pins ForRuns on the same degenerate shapes —
// remainder tails (len%block != 0) and a block wider than the index
// space — on a single-worker scheduler and a wider one, all through a
// named group.
func TestForBlockedEdges(t *testing.T) {
	for _, workers := range []int{1, 3} {
		s := New(workers)
		g := s.NewGroup("edges")
		for _, tc := range []struct{ n, block int }{
			{10, 3},  // remainder tail
			{5, 100}, // block > len
			{1, 4},   // single index
			{0, 4},   // empty
		} {
			hits := make([]atomic.Int32, tc.n)
			g.ForRuns(tc.n, tc.block, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d block=%d: index %d ran %d times",
						workers, tc.n, tc.block, i, got)
				}
			}
		}
		s.Stop()
	}
}

// TestForCoversAllIndices runs For on the process-global pool — the call
// the engine fan-out and the experiment runner make — and on private
// pools narrower and wider than n: every index runs exactly once.
func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 100} {
		s := Default()
		if workers > 0 {
			s = New(workers)
		}
		for _, n := range []int{0, 1, 5, 257} {
			out := make([]int32, n)
			s.For(nil, n, func(i int) { atomic.AddInt32(&out[i], 1) })
			for i, v := range out {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, v)
				}
			}
		}
		if s != Default() {
			s.Stop()
		}
	}
}

// TestForSerialFallback pins the serial path a serial reference run
// (the experiment runner's, say) relies on: For and ForRuns on a stopped
// scheduler post nothing, so the caller claims every index itself, one
// at a time and in ascending order.
func TestForSerialFallback(t *testing.T) {
	s := New(4)
	s.Stop()
	g := s.NewGroup("serial")
	var order []int // unsynchronized: -race flags any second executor
	g.For(100, func(i int) { order = append(order, i) })
	g.ForRuns(100, 7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			order = append(order, 100+i)
		}
	})
	if len(order) != 200 {
		t.Fatalf("ran %d of 200 indices", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("index %d ran at position %d: not the caller's serial order", v, i)
		}
	}
	if st := s.Stats(); st.Queued != 0 {
		t.Fatalf("stopped scheduler queued %d items", st.Queued)
	}
}

// TestForBlockedCoversAllIndices is the ForRuns counterpart on the
// process-global pool.
func TestForBlockedCoversAllIndices(t *testing.T) {
	for _, block := range []int{1, 3, 64} {
		out := make([]int32, 100)
		Default().ForRuns(nil, len(out), block, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&out[i], 1)
			}
		})
		for i, v := range out {
			if v != 1 {
				t.Fatalf("block=%d: index %d ran %d times", block, i, v)
			}
		}
	}
}

// TestForNoGoroutinesPerCall: repeated For calls on the process-global
// pool ride its fixed workers, so the goroutine count stays flat.
func TestForNoGoroutinesPerCall(t *testing.T) {
	Default().For(nil, 16, func(int) {}) // warm the shared pool
	before := runtime.NumGoroutine()
	for k := 0; k < 1000; k++ {
		Default().For(nil, 16, func(int) {})
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew %d -> %d across 1000 For calls", before, after)
	}
}

// forEntries are the two parallel-for entry points, each driving a
// per-index fn so one test body covers all of them.
var forEntries = []struct {
	name string
	run  func(s *Scheduler, g *Group, n int, fn func(int))
}{
	{"For", func(s *Scheduler, g *Group, n int, fn func(int)) { s.For(g, n, fn) }},
	{"ForRuns", func(s *Scheduler, g *Group, n int, fn func(int)) {
		s.ForRuns(g, n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		})
	}},
}

// runCapturing runs one parallel-for over n indices whose closure
// captures a 1 MiB object, calling wait before each index, and returns a
// weak pointer to the object. It is a separate frame so the caller holds
// no strong reference once it returns.
//
//go:noinline
func runCapturing(run func(*Scheduler, *Group, int, func(int)), s *Scheduler, g *Group, n int, wait func()) weak.Pointer[[1 << 20]byte] {
	big := new([1 << 20]byte)
	wp := weak.Make(big)
	run(s, g, n, func(i int) {
		wait()
		big[i]++
	})
	return wp
}

// collected reports whether a weak pointer's object was reclaimed.
func collected(wp weak.Pointer[[1 << 20]byte]) bool {
	for k := 0; k < 5; k++ {
		runtime.GC()
		if wp.Value() == nil {
			return true
		}
	}
	return false
}

// waitInflight returns a wait that spins until at least n participants
// have worked g's job at once. The first to see them latches it, so a
// participant that finishes early cannot strand the others.
func waitInflight(g *Group, n int32) func() {
	var met atomic.Bool
	return func() {
		for !met.Load() {
			if g.inflight.Load() >= n {
				met.Store(true)
			}
			runtime.Gosched()
		}
	}
}

// waitParked blocks until every worker of s is parked, i.e. no worker
// still holds a popped item on its stack.
func waitParked(t *testing.T, s *Scheduler) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Idle != s.Workers() {
		if time.Now().After(deadline) {
			t.Fatal("workers never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestForReleasesFinishedJob: once For/ForRuns returns, the
// scheduler must hold nothing of the job — a join ticket popped from a
// group FIFO by reslicing stays in the backing array, keeping the job's
// closure (and everything it captured, such as a boot's recovered logs)
// reachable. A dead ticket leaves when its group is next picked; each
// path it leaves by is forced in turn: a worker dropping the ticket it
// re-posted itself, a ticket re-posted by one worker and picked up by a
// second, a caller's ticket dropped ahead of a task that is still
// queued — both for an outside caller and for a caller that is itself
// the pool's only worker — and a caller's ticket a worker joins on while
// tasks stay queued behind it.
func TestForReleasesFinishedJob(t *testing.T) {
	for _, e := range forEntries {
		t.Run(e.name+"/reposted-dropped", func(t *testing.T) {
			// One worker beside the caller: the worker joins on the
			// caller's ticket, re-posts one to the group FIFO and, once
			// the job is done, drops it dead itself before parking.
			s := New(1)
			defer s.Stop()
			g := s.NewGroup("job")
			wp := runCapturing(e.run, s, g, 64, waitInflight(g, 2))
			waitParked(t, s)
			if !collected(wp) {
				t.Fatal("the group FIFO still pins the finished job")
			}
		})
		t.Run(e.name+"/reposted-joined", func(t *testing.T) {
			// Two workers plus the caller: the first worker joins on the
			// caller's ticket and re-posts one; the only way the second
			// can join is by picking that ticket up from the FIFO. It
			// re-posts one in turn, which is dropped dead later.
			s := New(2)
			defer s.Stop()
			g := s.NewGroup("job")
			wp := runCapturing(e.run, s, g, 64, waitInflight(g, 3))
			waitParked(t, s)
			if !collected(wp) {
				t.Fatal("the group FIFO still pins the job a second worker joined")
			}
		})
		t.Run(e.name+"/injection-fifo", func(t *testing.T) {
			// The only worker is busy, so the caller runs the whole job and
			// its ticket stays queued. Two tasks queue behind it; when the
			// worker frees up it drops the dead ticket and runs the first
			// task, which holds while the second keeps the FIFO non-empty.
			s := New(1)
			defer s.Stop()
			g := s.NewGroup("job")
			busy, release := make(chan struct{}), make(chan struct{})
			s.Go(nil, func() { close(busy); <-release })
			<-busy
			wp := runCapturing(e.run, s, g, 64, func() {})
			running, hold := make(chan struct{}), make(chan struct{})
			g.Go(func() { close(running); <-hold })
			g.Go(func() {})
			close(release)
			<-running
			ok := collected(wp)
			close(hold)
			if !ok {
				t.Fatal("the group FIFO still pins the finished job")
			}
		})
		t.Run(e.name+"/live-ticket", func(t *testing.T) {
			// The only worker is busy while the caller starts a two-index
			// job and waits for a helper on its index; two tasks queue
			// behind the caller's ticket. Freed, the worker pops the live
			// ticket and joins on the last index, too late to re-post one.
			// Then it runs the first task, which holds while the second
			// keeps the FIFO — and the backing array the popped ticket sat
			// in — alive.
			s := New(1)
			defer s.Stop()
			g := s.NewGroup("job")
			busy, release := make(chan struct{}), make(chan struct{})
			s.Go(nil, func() { close(busy); <-release })
			<-busy
			done := make(chan weak.Pointer[[1 << 20]byte])
			go func() { done <- runCapturing(e.run, s, g, 2, waitInflight(g, 2)) }()
			for s.Stats().Queued == 0 {
				runtime.Gosched()
			}
			running, hold := make(chan struct{}), make(chan struct{})
			g.Go(func() { close(running); <-hold })
			g.Go(func() {})
			close(release)
			wp := <-done
			<-running
			ok := collected(wp)
			close(hold)
			if !ok {
				t.Fatal("the FIFO's backing array still pins a job joined on its live ticket")
			}
		})
		t.Run(e.name+"/in-task", func(t *testing.T) {
			// The caller is a task on the only worker, so nobody can join:
			// it runs the whole job while the ticket waits in the FIFO,
			// then queues two tasks behind it. Once the caller returns,
			// the worker drops the dead ticket and runs the first task,
			// which holds while the second keeps the FIFO non-empty.
			s := New(1)
			defer s.Stop()
			g := s.NewGroup("job")
			var wp weak.Pointer[[1 << 20]byte]
			running, hold := make(chan struct{}), make(chan struct{})
			g.Go(func() {
				wp = runCapturing(e.run, s, g, 64, func() {})
				g.Go(func() { close(running); <-hold })
				g.Go(func() {})
			})
			<-running
			ok := collected(wp)
			close(hold)
			if !ok {
				t.Fatal("the group FIFO still pins a job run from inside a task")
			}
		})
	}
}

// TestForAllWorkersJoin: discovery through the group FIFO alone spreads
// to the whole pool — every worker plus the caller ends up on one job at
// once, each helper joining on the ticket the previous one re-posted.
// Widths above the machine's CPU count check correctness only (the
// workers interleave rather than run side by side), not speed.
func TestForAllWorkersJoin(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		for _, e := range forEntries {
			t.Run(fmt.Sprintf("%s/workers=%d", e.name, k), func(t *testing.T) {
				s := New(k)
				defer s.Stop()
				g := s.NewGroup("wide")
				wait := waitInflight(g, int32(k+1))
				hits := make([]atomic.Int32, 64)
				e.run(s, g, len(hits), func(i int) {
					wait()
					hits[i].Add(1)
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("index %d ran %d times", i, got)
					}
				}
				waitParked(t, s)
				if st := s.Stats(); st.Queued != 0 {
					t.Fatalf("%d dead tickets still queued after every worker parked", st.Queued)
				}
			})
		}
	}
}
