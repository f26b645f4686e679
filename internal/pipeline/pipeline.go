// Package pipeline is the streaming localization engine: the online,
// concurrent counterpart of the batch stpp.Localizer.
//
// An Engine consumes TagRead batches as the reader produces them (via
// reader.Simulator.Stream or any other source), maintains incremental
// per-tag phase profiles through a profile.Builder, and fans the expensive
// per-tag stage — V-zone detection by segmented DTW plus quadratic
// X-keying — out to the process-global scheduler. Snapshots may be taken
// at any point during the stream; only tags that gained reads since the
// previous snapshot are re-detected — and re-detection is resumable: each
// tag keeps its segment cache and open-end DTW columns (stpp.DetectState),
// so a snapshot pays O(new reads) per dirty tag rather than O(profile),
// with a transparent rebuild when an out-of-order read re-sorts a profile.
// The global (cheap) X/Y ordering is re-assembled over cached per-tag
// results.
//
// Both paths share the exact same per-tag and assembly code
// (stpp.Localizer.LocalizeTag and Assemble), so the final snapshot over a
// fully consumed stream is identical — per-tag V-zones, X/Y keys and both
// orders — to stpp.Localizer.LocalizeReads over the same read log. The
// batch Localizer cannot itself wrap the Engine without an import cycle, so
// the sharing runs the other way: stpp owns the two stages and both the
// batch facade and this engine compose them.
//
// The engine never emits or evicts tags on its own, and it keeps no
// finalized set. With a finalize policy it runs only the tag lifecycle's
// admission path (frontier tracking and the pre-read conclusive check,
// which drops a read for a resident tag whose pass is over) and exposes
// Evict; deploy.ShardedEngine, which runs one Engine per reader, is the
// one lifecycle coordinator: it decides emission and eviction, keeps the
// deployment's one finalized set and drops every later read for a
// finalized tag before any shard sees it.
package pipeline

import (
	"fmt"

	"repro/internal/epcgen2"
	"repro/internal/profile"
	"repro/internal/reader"
	"repro/internal/sched"
	"repro/internal/stpp"
)

// Options tunes an Engine.
type Options struct {
	// Group tags this engine's scheduler work for fairness accounting
	// (one group per ingest session, say). Nil gives the engine a group
	// of its own on the default scheduler.
	Group *sched.Group
	// Finalize enables the lifecycle's admission path (see Consume): the
	// engine tracks the read frontier and drops a read as late when its
	// resident tag's pass has concluded. The zero policy disables the
	// lifecycle.
	Finalize stpp.FinalizePolicy
}

// Engine is the streaming localization engine. It is not safe for
// concurrent use — Consume and Snapshot must come from one goroutine; the
// engine parallelizes internally.
type Engine struct {
	loc     *stpp.Localizer
	builder *profile.Builder
	group   *sched.Group
	cached  map[epcgen2.EPC]stpp.TagResult
	states  map[epcgen2.EPC]*tagState
	reads   int64

	// Lifecycle state (all zero/nil when the policy is disabled).
	policy   stpp.FinalizePolicy
	frontier float64 // running max read time across every consumed read
	late     int64   // reads dropped because their tag's pass had concluded

	// Snapshot-path scratch, reused across snapshots (the engine is
	// single-goroutine by contract): the assembled tag slice plus the
	// recompute fan-out slices. Without these, every snapshot of a
	// high-cadence stream allocated four slices sized by the population.
	tags    []stpp.TagResult
	yst     []*stpp.DetectState
	ps      []*profile.Profile
	sts     []*stpp.DetectState
	depcs   []epcgen2.EPC
	results []stpp.TagResult
}

// tagState is one tag's resumable detection state plus the profile
// generation it was built against — a generation bump means the builder
// re-sorted the profile after an out-of-order read, so the state must
// rebuild rather than resume — and the profile length the cached result
// was detected at. Same generation and same length mean the profile is
// unchanged (growth is append-only within a generation), so the cached
// result is already exact and recompute can skip the tag.
type tagState struct {
	det    *stpp.DetectState
	gen    uint64
	detLen int
}

// New builds an Engine for the given STPP configuration.
func New(cfg stpp.Config, opts Options) (*Engine, error) {
	loc, err := stpp.NewLocalizer(cfg)
	if err != nil {
		return nil, err
	}
	return NewFromLocalizer(loc, opts), nil
}

// NewFromLocalizer wraps an existing localizer in a streaming engine.
func NewFromLocalizer(loc *stpp.Localizer, opts Options) *Engine {
	group := opts.Group
	if group == nil {
		group = sched.Default().NewGroup("pipeline")
	}
	return &Engine{
		loc:     loc,
		builder: profile.NewBuilder(),
		group:   group,
		cached:  make(map[epcgen2.EPC]stpp.TagResult),
		states:  make(map[epcgen2.EPC]*tagState),
		policy:  opts.Finalize,
	}
}

// Tags returns the number of resident tags — distinct tags seen and not
// yet evicted by the lifecycle.
func (e *Engine) Tags() int { return e.builder.Tags() }

// EPCs returns the resident tags in first-appearance order. The slice is
// shared with the engine's builder — callers must not mutate or retain it
// across engine calls.
func (e *Engine) EPCs() []epcgen2.EPC { return e.builder.EPCs() }

// Reads returns the total number of reads consumed so far. Like every
// other Engine method it must be called from the consuming goroutine.
func (e *Engine) Reads() int64 { return e.reads }

// Consume appends a batch of reads to the per-tag profiles. It is cheap
// (amortized O(1) per read); all localization work is deferred to the next
// Snapshot so bursts of reads between snapshots cost one detection per
// touched tag, not one per read.
//
// With a finalize policy enabled, Consume also runs the lifecycle's
// admission path per read: a read that arrives after its resident tag's
// quiet gap has already elapsed triggers a conclusive-pass check of the
// pre-read profile, and a conclusive one drops the read as late (the pass
// is over; admitting it would reopen the tag's position). Deciding
// *here*, against the read-stream frontier rather than at the
// coordinator's next sweep, makes which reads are admitted a pure
// function of the read prefix, independent of snapshot or checkpoint
// cadence, which is what the emitted-prefix immutability property rests
// on. The check needs no memory of earlier verdicts: a dropped read
// leaves the profile frozen, and for a frozen profile the verdict cannot
// flip back as the frontier grows, so every later read for the tag is
// dropped by the same check.
func (e *Engine) Consume(batch []reader.TagRead) {
	if !e.policy.Enabled() {
		e.builder.AddBatch(batch)
		e.reads += int64(len(batch))
		return
	}
	for _, r := range batch {
		if r.Time > e.frontier {
			e.frontier = r.Time
		}
		if mt, seen := e.builder.MaxTime(r.EPC); seen && mt+e.policy.After <= e.frontier {
			// The tag was quiet for the full gap before this read
			// arrived: judge the pre-read profile now. If it is
			// conclusive the pass is over and this read is late;
			// otherwise the pass genuinely resumes (possible only when
			// the workload violates the policy's gap precondition) and
			// the read is admitted.
			if tr := e.detectOne(r.EPC); e.policy.Conclusive(tr, e.frontier) {
				e.late++
				continue
			}
		}
		e.builder.Add(r)
		e.reads++
	}
}

// refresh readies one tag's detection state against its current
// profile: it creates the state on first sight and resets it when the
// builder re-sorted the profile (generation bump). The returned state is
// nil when the profile is unchanged since the cached result — same
// generation, same length — so the cached result is already exact;
// otherwise it is marked as detected at the profile's current length.
// Reading the profile here also forces any lazy re-sort, serially.
func (e *Engine) refresh(epc epcgen2.EPC) (*profile.Profile, *tagState) {
	p := e.builder.Profile(epc)
	gen := e.builder.Generation(epc)
	ts := e.states[epc]
	if ts == nil {
		ts = &tagState{det: e.loc.NewDetectState(), gen: gen}
		e.states[epc] = ts
	} else if ts.gen != gen {
		ts.det.Reset()
		ts.gen = gen
	} else if ts.detLen == p.Len() {
		return p, nil
	}
	ts.detLen = p.Len()
	return p, ts
}

// detectOne refreshes one tag's cached result from its current profile
// — the single-tag serial twin of recompute. The builder's dirty mark for
// the tag is left alone: a later recompute re-running the detection is a
// no-op by the incremental contract (byte-identical result, no extra
// work).
func (e *Engine) detectOne(epc epcgen2.EPC) stpp.TagResult {
	p, ts := e.refresh(epc)
	if ts == nil {
		return e.cached[epc]
	}
	tr := e.loc.LocalizeTagIncremental(ts.det, p)
	e.cached[epc] = tr
	return tr
}

// Snapshot localizes the stream consumed so far. Tags with new reads since
// the previous snapshot are re-detected on the worker pool — resuming each
// tag's segmentation and DTW state, so a snapshot pays for the reads that
// arrived since the previous one, not for the whole profile. Unchanged
// tags reuse their cached per-tag result. The returned Result matches what
// the batch Localizer would produce over the same prefix of the read log.
//
// The Result's Tags slice is engine-owned scratch, overwritten by the next
// Snapshot on this engine: callers that retain a snapshot across engine
// calls (deploy.ShardedEngine caches per-shard results, stppd publishes
// them to concurrent queriers) must copy Tags first. XOrder/YOrder are
// freshly allocated and safe to keep.
func (e *Engine) Snapshot() (*stpp.Result, error) {
	if e.builder.Tags() == 0 {
		return nil, fmt.Errorf("pipeline: no tag profiles in stream")
	}
	e.recompute(e.builder.TakeDirty())
	epcs := e.builder.EPCs()
	e.tags, e.yst = e.tags[:0], e.yst[:0]
	for _, epc := range epcs {
		e.tags = append(e.tags, e.cached[epc])
		// Hand the Y stage each tag's detection state so valley windowing
		// resumes the cached unwrap/median curves. Every resident tag has
		// one: a new tag is dirty on its first snapshot, and a restore
		// gives every restored tag a cold one.
		e.yst = append(e.yst, e.states[epc].det)
	}
	return e.loc.AssembleStates(e.tags, e.yst), nil
}

// recompute refreshes the cached per-tag results for the given tags,
// fanning detection out across the worker pool one tag per claim. Tags
// whose profile is provably unchanged since their cached result — same
// builder generation, same length — are skipped outright: the dirty mark
// alone does not imply new work (detectOne leaves it set, and a read
// dropped by lifecycle admission dirties nothing), and by the incremental
// contract a re-detection of an unchanged profile returns the cached
// result bit for bit.
func (e *Engine) recompute(dirty []epcgen2.EPC) {
	// The builder is read from worker goroutines: force any lazy re-sort to
	// happen here, serially, so workers see quiescent profiles — and pick
	// up each tag's resumable state, rebuilding it when the sort changed
	// history (generation bump).
	e.ps, e.sts, e.depcs = e.ps[:0], e.sts[:0], e.depcs[:0]
	for _, epc := range dirty {
		p, ts := e.refresh(epc)
		if ts == nil {
			continue
		}
		e.ps = append(e.ps, p)
		e.sts = append(e.sts, ts.det)
		e.depcs = append(e.depcs, epc)
	}
	n := len(e.depcs)
	if cap(e.results) < n {
		e.results = make([]stpp.TagResult, n)
	}
	e.results = e.results[:n]
	results := e.results
	e.group.For(n, func(i int) { results[i] = e.loc.LocalizeTagIncremental(e.sts[i], e.ps[i]) })
	for i, epc := range e.depcs {
		e.cached[epc] = results[i]
	}
}

// Evict force-evicts one resident tag: its profile leaves the builder and
// its detection state returns to the free-lists. deploy.ShardedEngine
// calls it on its shards once every overlapping zone agrees the pass
// concluded (or that the tag can never be ordered). The engine keeps no
// mark of the tag: a later read for it would start a new profile, so the
// caller drops such reads itself, as deploy does for every tag it
// finalized. The return reports whether the tag was resident.
func (e *Engine) Evict(epc epcgen2.EPC) bool {
	if ts := e.states[epc]; ts != nil {
		ts.det.Release()
		delete(e.states, epc)
	}
	delete(e.cached, epc)
	_, resident := e.builder.MaxTime(epc)
	e.builder.Remove(epc)
	return resident
}

// LateReads counts reads dropped because their resident tag's pass had
// already concluded when they arrived.
func (e *Engine) LateReads() int64 { return e.late }

// Frontier returns the maximum read time consumed so far (on this
// engine's read clock), including dropped late reads. Zero until the
// lifecycle is enabled — the disabled engine does not track it.
func (e *Engine) Frontier() float64 { return e.frontier }

// Close returns the engine's pooled holdings — every tag's DTW decision
// array — to their shared free-lists and drops every per-tag reference —
// profiles, cached results, detection states —
// returning the engine to its freshly-constructed state. A dropped or
// evicted ingest session calls it so the engine stops pinning its largest
// allocations the moment the session goes away, and the next session
// ramps up on the recycled arrays instead of re-paying the
// allocation-and-zeroing ladder.
func (e *Engine) Close() {
	for _, ts := range e.states {
		ts.det.Release()
	}
	e.resetEmpty()
}

// Localize runs the engine over a complete read log in one call — the
// parallel drop-in for stpp.Localizer.LocalizeReads.
func (e *Engine) Localize(reads []reader.TagRead) (*stpp.Result, error) {
	e.Consume(reads)
	return e.Snapshot()
}

// RunSimulator drives a reader simulator to completion through the engine,
// taking a snapshot roughly every `every` seconds of simulated time (0
// disables intermediate snapshots) and returning the final result. The
// simulator streams once with `duration` as its interrogation horizon —
// identical to the batch Run — and the snapshot cadence is derived from
// read timestamps, so no round is ever truncated mid-stream. onSnapshot,
// if non-nil, receives each intermediate snapshot stamped with the latest
// consumed read time; at most one snapshot is emitted per consumed batch,
// so a read gap spanning several intervals yields one fresh snapshot, not
// a backlog of stale duplicates. Intermediate snapshot errors (e.g. no
// tags seen yet) are skipped, not fatal.
func (e *Engine) RunSimulator(sim *reader.Simulator, duration, every float64, onSnapshot func(t float64, res *stpp.Result)) (*stpp.Result, error) {
	next := every
	sim.Stream(duration, func(batch []reader.TagRead) bool {
		e.Consume(batch)
		if onSnapshot != nil && every > 0 {
			// The final snapshot is returned, not emitted (t >= duration).
			if t := batch[len(batch)-1].Time; t >= next && t < duration {
				if res, err := e.Snapshot(); err == nil {
					onSnapshot(t, res)
				}
				for next += every; next <= t; next += every {
				}
			}
		}
		return true
	})
	return e.Snapshot()
}
