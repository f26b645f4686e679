// Package deploy scales the streaming localization engine to multi-reader
// deployments: warehouse aisles, multi-lane conveyors and airport portal
// tunnels where several readers/antennas cover adjacent zones of one tag
// field.
//
// A Deployment describes the readers — each with its coverage zone, STPP
// configuration and clock offset. A ShardedEngine routes incoming TagRead
// batches by reader ID to one pipeline.Engine per reader, snapshots the
// dirty shards concurrently on the global scheduler (caching per-shard
// results so quiet zones cost nothing), and stitches the per-zone relative
// orders into one global order: overlap tags read by adjacent readers
// anchor the merge, and when a zone boundary has no overlap the stitch
// falls back to zone geometry (left zone first).
//
// A deployment with a single reader is byte-identical to the plain
// streaming engine (and therefore to the batch stpp.Localizer): routing is
// the identity, the one shard runs the exact same engine, and stitching a
// single order is the identity. internal/deploy tests enforce this.
package deploy

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/epcgen2"
	"repro/internal/pipeline"
	"repro/internal/reader"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stpp"
	"repro/internal/trace"
)

// Zone bounds a reader's coverage along the global movement axis, meters.
// Zones order the shards: ascending XMin, left to right.
type Zone struct {
	XMin, XMax float64
}

// ReaderSpec describes one reader/antenna of a deployment.
type ReaderSpec struct {
	// ID keys the shard: reads with TagRead.Reader == ID route here.
	ID int
	// Zone is the coverage interval on the global movement axis.
	Zone Zone
	// Config is the shard's STPP configuration (reference geometry and
	// sweep speed may differ per reader).
	Config stpp.Config
	// ClockOffset is the reader's local t=0 on the deployment's global
	// clock, seconds. Set it ONLY when this reader's reads are fed in on
	// its local clock: snapshots then re-base the shard's X keys so bottom
	// times are comparable across shards. Leave it 0 when the stream is
	// already on the global clock (scenario.MultiScene.Run/Stream re-base
	// read times before emitting — shifting again would double-count).
	ClockOffset float64
}

// Deployment describes N readers covering adjacent zones.
type Deployment struct {
	Readers []ReaderSpec
}

// Validate reports structural errors.
func (d Deployment) Validate() error {
	if len(d.Readers) == 0 {
		return fmt.Errorf("deploy: no readers")
	}
	seen := make(map[int]bool, len(d.Readers))
	for _, r := range d.Readers {
		if seen[r.ID] {
			return fmt.Errorf("deploy: duplicate reader ID %d", r.ID)
		}
		seen[r.ID] = true
		if !finite(r.Zone.XMin) || !finite(r.Zone.XMax) {
			return fmt.Errorf("deploy: reader %d zone [%v, %v] not finite", r.ID, r.Zone.XMin, r.Zone.XMax)
		}
		if r.Zone.XMax < r.Zone.XMin {
			return fmt.Errorf("deploy: reader %d zone [%v, %v] inverted", r.ID, r.Zone.XMin, r.Zone.XMax)
		}
		if !finite(r.ClockOffset) {
			return fmt.Errorf("deploy: reader %d clock offset %v not finite", r.ID, r.ClockOffset)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// FromHeader builds the Deployment a recorded trace header describes, the
// shared derivation used by cmd/stpp, the stppd ingest daemon and loadgen
// so all three replay a trace with identical configurations. base supplies
// the wavelength and tuning; the header's deployment-wide PerpDist/Speed
// override base, and each reader's metadata overrides those in turn —
// unless fixedPerp/fixedSpeed pin the caller's (flag-supplied) values. A
// header without reader metadata describes a single reader with ID 0
// covering everything, which NewSharded runs byte-identically to the plain
// streaming engine.
func FromHeader(h trace.Header, base stpp.Config, fixedPerp, fixedSpeed bool) Deployment {
	if !fixedPerp && h.PerpDist > 0 {
		base.Reference.PerpDist = h.PerpDist
	}
	if !fixedSpeed && h.Speed > 0 {
		base.Reference.Speed = h.Speed
	}
	if len(h.Readers) == 0 {
		return Deployment{Readers: []ReaderSpec{{ID: 0, Config: base}}}
	}
	var d Deployment
	for _, rm := range h.Readers {
		cfg := base
		if !fixedPerp && rm.PerpDist > 0 {
			cfg.Reference.PerpDist = rm.PerpDist
		}
		if !fixedSpeed && rm.Speed > 0 {
			cfg.Reference.Speed = rm.Speed
		}
		d.Readers = append(d.Readers, ReaderSpec{
			ID:          rm.ID,
			Zone:        Zone{XMin: rm.XMin, XMax: rm.XMax},
			Config:      cfg,
			ClockOffset: rm.ClockOffset,
		})
	}
	return d
}

// Of builds the Deployment described by a multi-reader scene: one spec per
// reader, with the scene's zone and per-reader STPP configuration. Spec
// clock offsets stay 0 — MultiScene.Run/Stream already emit reads on the
// global clock, so the engine must not shift shard keys again.
func Of(m *scenario.MultiScene) Deployment {
	var d Deployment
	for i := range m.Readers {
		rs := &m.Readers[i]
		d.Readers = append(d.Readers, ReaderSpec{
			ID:     rs.ID,
			Zone:   Zone{XMin: rs.XMin, XMax: rs.XMax},
			Config: rs.Scene.STPPConfig(),
		})
	}
	return d
}

// Options tunes a ShardedEngine.
type Options struct {
	// Workers bounds how many scheduler workers may serve this
	// deployment's per-tag fan-out at once; 0 means runtime.GOMAXPROCS.
	// Every shard gets the full bound: all work runs on the process-global
	// scheduler, whose fixed pool width caps real concurrency, so shards
	// no longer split a goroutine budget between them and a lone dirty
	// shard can use the whole machine.
	Workers int
	// Group tags the deployment's scheduler work for fairness accounting.
	// Nil gives the deployment a group of its own on the default
	// scheduler, shared by every shard.
	Group *sched.Group
	// Finalize enables the tag lifecycle across the deployment. Shard
	// engines only run the lifecycle's admission path (late-read drop,
	// frontier tracking) and never emit or evict on their own; the
	// sharded engine is the one lifecycle coordinator: it finalizes a
	// tag only when every zone holding it agrees its pass concluded and
	// the deployment-wide frontier has moved past it, then emits it to
	// the global emission stream and evicts it from every shard. The
	// zero policy disables the lifecycle.
	Finalize stpp.FinalizePolicy
}

// shard is one reader's slice of the engine.
type shard struct {
	spec   ReaderSpec
	eng    *pipeline.Engine
	dirty  bool
	cached *stpp.Result // last snapshot; nil until the shard has reads

	// snap takes the shard's snapshot; it is eng.Snapshot except in tests,
	// which swap in failing implementations to exercise Snapshot's
	// all-or-nothing commit.
	snap func() (*stpp.Result, error)
}

// ShardedEngine is the multi-reader streaming engine. Like
// pipeline.Engine it is not safe for concurrent use — Consume and Snapshot
// must come from one goroutine; the engine parallelizes internally.
type ShardedEngine struct {
	shards  []*shard // zone order: ascending Zone.XMin, ties by ID
	byID    map[int]*shard
	workers int
	group   *sched.Group

	// Lifecycle state (nil/zero when the policy is disabled). final and
	// finalOrder track globally-finalized tags (set + deterministic
	// marking order for checkpoints); emitted is the global emission
	// stream, X keys on the deployment clock; late counts reads dropped
	// at the router because their tag was already globally final.
	policy     stpp.FinalizePolicy
	final      map[epcgen2.EPC]bool
	finalOrder []epcgen2.EPC
	emitted    []EmittedTag
	late       int64
	discarded  int64            // lapsed-but-unorderable tags evicted without emission
	routeBuf   []reader.TagRead // scratch for the late-read filter

	// Incremental stitching: the X and Y merge folds memoized across
	// snapshots, shared by Snapshot and sweep (both stitch the same
	// per-shard orders; quiet shards republish identical ones).
	xStitch stitchCache
	yStitch stitchCache
}

// NewSharded builds a ShardedEngine for the deployment.
func NewSharded(d Deployment, opts Options) (*ShardedEngine, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	total := opts.Workers
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	if err := opts.Finalize.Validate(); err != nil {
		return nil, err
	}
	group := opts.Group
	if group == nil {
		group = sched.Default().NewGroup("deploy")
	}
	se := &ShardedEngine{workers: total, group: group, byID: make(map[int]*shard, len(d.Readers)), policy: opts.Finalize}
	if se.policy.Enabled() {
		se.final = make(map[epcgen2.EPC]bool)
	}
	for _, spec := range d.Readers {
		eng, err := pipeline.New(spec.Config, pipeline.Options{
			Workers:  total,
			Group:    group,
			Finalize: opts.Finalize,
		})
		if err != nil {
			return nil, fmt.Errorf("deploy: reader %d: %w", spec.ID, err)
		}
		sh := &shard{spec: spec, eng: eng, snap: eng.Snapshot}
		se.shards = append(se.shards, sh)
		se.byID[spec.ID] = sh
	}
	sort.SliceStable(se.shards, func(a, b int) bool {
		za, zb := se.shards[a].spec.Zone, se.shards[b].spec.Zone
		if za.XMin != zb.XMin {
			return za.XMin < zb.XMin
		}
		return se.shards[a].spec.ID < se.shards[b].spec.ID
	})
	return se, nil
}

// Shards returns the number of reader shards.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Tags returns the number of distinct (reader, tag) profiles across all
// shards; an overlap tag read by two readers counts twice.
func (se *ShardedEngine) Tags() int {
	n := 0
	for _, sh := range se.shards {
		n += sh.eng.Tags()
	}
	return n
}

// Reads returns the total reads consumed across all shards.
func (se *ShardedEngine) Reads() int64 {
	var n int64
	for _, sh := range se.shards {
		n += sh.eng.Reads()
	}
	return n
}

// Consume routes a batch of reads to their shards by reader ID. Like
// pipeline.Engine.Consume it is cheap; localization is deferred to the
// next Snapshot. A read carrying an unknown reader ID is an error (the
// batch is consumed up to the offending read).
//
// With the lifecycle enabled, reads for globally-finalized tags are
// dropped at the router (and counted late) before they reach any shard: a
// finalized tag's emitted position is immutable, so a straggler read must
// not resurrect the tag in a zone that evicted it — or introduce it to a
// zone that never held it.
func (se *ShardedEngine) Consume(batch []reader.TagRead) error {
	if len(se.final) > 0 {
		late := false
		for _, r := range batch {
			if se.final[r.EPC] {
				late = true
				break
			}
		}
		if late {
			// Uncommon path: rebuild the batch without the late reads.
			// The common batch (no stragglers) routes straight from the
			// caller's slice with no copy.
			kept := se.routeBuf[:0]
			for _, r := range batch {
				if se.final[r.EPC] {
					se.late++
					continue
				}
				kept = append(kept, r)
			}
			se.routeBuf = kept
			batch = kept
		}
	}
	for i := 0; i < len(batch); {
		id := batch[i].Reader
		j := i + 1
		for j < len(batch) && batch[j].Reader == id {
			j++
		}
		sh, ok := se.byID[id]
		if !ok {
			return fmt.Errorf("deploy: read for unknown reader ID %d", id)
		}
		sh.eng.Consume(batch[i:j])
		sh.dirty = true
		i = j
	}
	return nil
}

// sweep coordinates finalization across shards. A tag may emit only when
// (a) every shard holding it independently judges its pass conclusive at
// that shard's local frontier, (b) its last read and V-zone center,
// re-based to the deployment clock, sit the policy's gap and margin behind
// the *deployment* frontier — the minimum re-based frontier across shards
// that have seen reads — and (c) the stitched global order cannot change
// in front of it anymore. For (c) the sweep walks the exact order the
// stitcher produces today and emits the leading run of candidates,
// stopping at the first tag that is not one: emission is strictly a
// prefix of the current stitch, in stitch order, so an emitted position
// can never be contradicted by a later merge. A candidate inside that run
// is additionally held back while any active tag's re-based first read
// precedes the candidate's bottom time (that tag's valley, wherever it
// lands, could still sort in front) or any active detected tag's current
// bottom already does.
//
// Shards that have never seen a read are excluded from the deployment
// frontier: under the policy's gap precondition (After exceeds the
// inter-zone transit time, and every zone that will ever read comes live
// within After of the stream start) a tag headed for such a zone arrives
// there — making the zone a holder with an opinion — before gate (b) can
// pass.
func (se *ShardedEngine) sweep() {
	if !se.policy.Enabled() {
		return
	}
	gmin := math.Inf(1)
	for _, sh := range se.shards {
		if sh.eng.Reads() > 0 || sh.eng.LateReads() > 0 {
			if f := sh.eng.Frontier() + sh.spec.ClockOffset; f < gmin {
				gmin = f
			}
		}
	}
	if math.IsInf(gmin, 1) {
		return
	}
	// Aggregate every resident tag across its holding shards, working
	// from the freshly-refreshed shard caches (X keys already re-based to
	// the deployment clock; profile times still on each shard's local
	// clock, which is what the local conclusive check wants).
	type info struct {
		holders, valid, conclusive int
		bottom                     float64 // min re-based bottom across conclusive holders
		bestX                      stpp.XKey
		last                       float64 // max re-based last read across ALL holders
		center                     float64 // max re-based V-zone center across conclusive holders
		firstRead                  float64 // min re-based first read across holders
		cand                       bool
	}
	byEPC := make(map[epcgen2.EPC]*info)
	for _, sh := range se.shards {
		if sh.cached == nil {
			continue
		}
		off := sh.spec.ClockOffset
		lf := sh.eng.Frontier()
		for i := range sh.cached.Tags {
			tr := &sh.cached.Tags[i]
			if se.final[tr.EPC] {
				continue // evicted after this cache was built; stale entry
			}
			in := byEPC[tr.EPC]
			if in == nil {
				in = &info{bottom: math.Inf(1), last: math.Inf(-1), center: math.Inf(-1), firstRead: math.Inf(1)}
				byEPC[tr.EPC] = in
			}
			in.holders++
			if tr.Err == nil {
				in.valid++
			}
			if p := tr.Profile; p != nil && p.Len() > 0 {
				if fr := p.Times[0] + off; fr < in.firstRead {
					in.firstRead = fr
				}
				if last := p.Times[p.Len()-1] + off; last > in.last {
					in.last = last
				}
			}
			if !se.policy.Conclusive(*tr, lf) {
				continue
			}
			in.conclusive++
			// Conclusive implies Err == nil, a non-empty sorted profile
			// and an in-range V-zone center.
			p := tr.Profile
			mid := (tr.VZone.Start + tr.VZone.End) / 2
			if ct := p.Times[mid] + off; ct > in.center {
				in.center = ct
			}
			if tr.X.BottomTime < in.bottom {
				in.bottom = tr.X.BottomTime
				in.bestX = tr.X
			}
		}
	}
	// Discard pass: a tag every holding zone judges undetectable (Err in
	// each) with every profile quiet past the gap is permanently
	// unorderable — the profiles are frozen, so each zone's detection error
	// is final, exactly as a batch replay over any longer prefix would see
	// it (erred tags sort to the unordered NaN tail of the assembled
	// orders, behind every orderable tag, so dropping one changes only
	// that tail). Left resident it would pin the minFirst horizon below at
	// its first read and wedge emission — and memory — for the rest of the
	// stream. Evict it from every shard without emission.
	var drop []epcgen2.EPC
	for epc, in := range byEPC {
		if in.valid == 0 && !math.IsInf(in.last, -1) && in.last+se.policy.After <= gmin {
			drop = append(drop, epc)
		}
	}
	// Map iteration order is random; finalOrder is checkpointed, so give
	// same-sweep discards a deterministic order.
	sort.Slice(drop, func(i, j int) bool { return bytes.Compare(drop[i][:], drop[j][:]) < 0 })
	for _, epc := range drop {
		se.discarded++
		se.final[epc] = true
		se.finalOrder = append(se.finalOrder, epc)
		delete(byEPC, epc)
		se.evictEverywhere(epc)
	}
	var xOrders [][]epcgen2.EPC
	for _, sh := range se.shards {
		if sh.cached == nil {
			continue
		}
		xOrders = append(xOrders, se.filterFinal(sh.cached.XOrderEPCs()))
	}
	pending := 0
	for _, in := range byEPC {
		if in.valid > 0 && in.conclusive == in.valid &&
			in.last+se.policy.After <= gmin && in.center+se.policy.Margin <= gmin {
			in.cand = true
			pending++
		}
	}
	if pending == 0 {
		return
	}
	// The active-tag horizon for the hold-back rule: the earliest re-based
	// first read and detected bottom over every non-candidate resident.
	minFirst, minBottom := math.Inf(1), math.Inf(1)
	for _, in := range byEPC {
		if in.cand {
			continue
		}
		if in.firstRead < minFirst {
			minFirst = in.firstRead
		}
	}
	for _, sh := range se.shards {
		if sh.cached == nil {
			continue
		}
		for i := range sh.cached.Tags {
			tr := &sh.cached.Tags[i]
			in := byEPC[tr.EPC]
			if in == nil || in.cand || tr.Err != nil {
				continue
			}
			if tr.X.BottomTime < minBottom {
				minBottom = tr.X.BottomTime
			}
		}
	}
	var emit []epcgen2.EPC
	for _, epc := range se.xStitch.merge(xOrders) {
		in := byEPC[epc]
		if in == nil || !in.cand || in.bottom >= minFirst || in.bottom >= minBottom {
			break
		}
		emit = append(emit, epc)
	}
	for _, epc := range emit {
		in := byEPC[epc]
		se.emitted = append(se.emitted, EmittedTag{EPC: epc, X: in.bestX})
		se.final[epc] = true
		se.finalOrder = append(se.finalOrder, epc)
		se.evictEverywhere(epc)
	}
}

// evictEverywhere evicts one finalized (emitted or discarded) tag from
// every shard that holds it.
func (se *ShardedEngine) evictEverywhere(epc epcgen2.EPC) {
	for _, sh := range se.shards {
		if !sh.eng.Evict(epc) {
			continue // not a holder: marked final, nothing to refresh
		}
		sh.dirty = true
		if sh.eng.Tags() == 0 {
			// Nothing resident: the stale cache (which still lists the
			// evicted tag) must not be stitched or published again, and
			// the refresh loop skips empty shards.
			sh.cached = nil
		}
	}
}

// filterFinal drops globally-finalized tags from a shard order — between
// a sweep's eviction and the shard's next refresh, the cached result still
// lists emitted tags, which live in the emitted prefix now.
func (se *ShardedEngine) filterFinal(order []epcgen2.EPC) []epcgen2.EPC {
	if len(se.final) == 0 {
		return order
	}
	kept := order[:0:0]
	for _, epc := range order {
		if !se.final[epc] {
			kept = append(kept, epc)
		}
	}
	return kept
}

// EmittedTag is one entry of the ordered emission stream: a finalized
// tag's identity and its frozen X key on the deployment clock. Seq is
// implicit — an entry's index in ShardedEngine.Emitted (and in the
// cursor-paginated serve endpoint) is its emission sequence number, and it
// never changes once assigned.
type EmittedTag struct {
	EPC epcgen2.EPC
	X   stpp.XKey
}

// Emitted returns the deployment's ordered emission stream so far, X keys
// on the deployment clock. The backing array is append-only: entries never
// change once emitted.
func (se *ShardedEngine) Emitted() []EmittedTag { return se.emitted }

// LateReads counts reads dropped deployment-wide because their tag was
// already final when they arrived — at the router plus inside each shard.
func (se *ShardedEngine) LateReads() int64 {
	n := se.late
	for _, sh := range se.shards {
		n += sh.eng.LateReads()
	}
	return n
}

// Finalized returns how many tags have been finalized and emitted.
func (se *ShardedEngine) Finalized() int { return len(se.emitted) }

// Discarded counts tags evicted deployment-wide without emission: every
// zone that held them judged detection permanently failed (profile lapsed
// quiet with Err set everywhere), so they could never be ordered. The tally
// is process-local diagnostics — the final marking a discard leaves behind
// is checkpointed, the counter is not, so it restarts at zero after a
// restore.
func (se *ShardedEngine) Discarded() int64 { return se.discarded }

// ShardResult is one zone's localization outcome.
type ShardResult struct {
	// ReaderID and Zone identify the shard.
	ReaderID int
	Zone     Zone
	// Result is the shard's own localization result. Its X keys are on
	// the deployment's global clock (re-based by the reader's
	// ClockOffset); its Y keys are relative to the shard's own pivot.
	// Nil while the shard has no reads.
	Result *stpp.Result
}

// GlobalResult is a deployment-wide snapshot: the per-zone results plus
// the stitched global orders.
type GlobalResult struct {
	// Shards holds per-zone results in zone order (left to right). Shards
	// without reads yet carry a nil Result.
	Shards []ShardResult
	// XOrder is the stitched global order along the movement axis: every
	// tag seen by any reader exactly once, overlap tags anchoring the
	// merge of adjacent zones.
	XOrder []epcgen2.EPC
	// YOrder is the stitched global Y order (nearest to each reader's
	// trajectory first). Y keys are only comparable within a zone, so the
	// stitch relies on overlap anchors; with disjoint zones it degrades
	// to zone concatenation. Finalized tags leave the Y order when they
	// are emitted: Y keys are pivot-relative within the *current* active
	// set, so YOrder is an active-set view while XOrder spans the whole
	// belt (emitted prefix ++ active suffix).
	YOrder []epcgen2.EPC
	// Emitted is the deployment's ordered emission stream: every
	// finalized tag in its frozen, immutable global position. XOrder's
	// leading entries are exactly these tags. Nil when the lifecycle is
	// disabled.
	Emitted []EmittedTag
	// XConfidence scores each adjacent pair of XOrder (length
	// len(XOrder)-1, or nil below two tags): stpp.PairConfidence between
	// the pair's X keys on the deployment clock — frozen keys for the
	// emitted prefix, each active tag's earliest-bottom valid shard key
	// for the suffix. A pair touching a tag with no usable key scores 0.
	XConfidence []float64
}

// Snapshot localizes the stream consumed so far: shards that gained reads
// since the previous snapshot are re-localized concurrently (each shard's
// per-tag stage fans out on its own worker pool), quiet shards reuse their
// cached result, and the per-zone orders are stitched into the global
// orders. It is an error if no shard has any reads yet.
//
// Snapshot is all-or-nothing: when any shard's localization errors, no
// shard commits its new result — every refreshed shard keeps its previous
// cache and stays dirty, so a retried Snapshot re-localizes all of them
// instead of stitching a mix of new and stale zones.
func (se *ShardedEngine) Snapshot() (*GlobalResult, error) {
	var refresh []*shard
	for _, sh := range se.shards {
		if sh.dirty && sh.eng.Tags() > 0 {
			refresh = append(refresh, sh)
		}
	}
	results := make([]*stpp.Result, len(refresh))
	errs := make([]error, len(refresh))
	snapOne := func(i int) {
		sh := refresh[i]
		res, err := sh.snap()
		if err != nil {
			errs[i] = err
			return
		}
		// The shard engine owns the snapshot's Tags scratch and overwrites
		// it on its next snapshot; this cache outlives that (it is kept for
		// quiet shards and published to concurrent stppd queriers), so take
		// our own copy — which the clock re-basing below may then mutate
		// freely. XOrder/YOrder are freshly allocated per snapshot.
		res = &stpp.Result{
			Tags:        append([]stpp.TagResult(nil), res.Tags...),
			XOrder:      res.XOrder,
			YOrder:      res.YOrder,
			XConfidence: res.XConfidence,
		}
		if off := sh.spec.ClockOffset; off != 0 {
			for j := range res.Tags {
				res.Tags[j].X = res.Tags[j].X.Shifted(off)
			}
		}
		results[i] = res
	}
	se.group.For(len(refresh), len(refresh), snapOne)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("deploy: reader %d: %w", refresh[i].spec.ID, err)
		}
	}
	for i, sh := range refresh {
		sh.cached = results[i]
		sh.dirty = false
	}
	se.sweep()

	gr := &GlobalResult{Emitted: se.emitted}
	var xOrders, yOrders [][]epcgen2.EPC
	for _, sh := range se.shards {
		gr.Shards = append(gr.Shards, ShardResult{
			ReaderID: sh.spec.ID,
			Zone:     sh.spec.Zone,
			Result:   sh.cached,
		})
		if sh.cached != nil {
			xOrders = append(xOrders, se.filterFinal(sh.cached.XOrderEPCs()))
			yOrders = append(yOrders, se.filterFinal(sh.cached.YOrderEPCs()))
		}
	}
	if len(xOrders) == 0 && len(se.emitted) == 0 {
		return nil, fmt.Errorf("deploy: no tag profiles in any shard")
	}
	active := se.xStitch.merge(xOrders)
	gr.XOrder = make([]epcgen2.EPC, 0, len(se.emitted)+len(active))
	for _, em := range se.emitted {
		gr.XOrder = append(gr.XOrder, em.EPC)
	}
	gr.XOrder = append(gr.XOrder, active...)
	gr.YOrder = se.yStitch.merge(yOrders)
	gr.XConfidence = se.xConfidence(gr.XOrder)
	return gr, nil
}

// xConfidence scores each adjacent pair of the stitched global order:
// frozen emission-stream keys for finalized tags, and for active tags the
// earliest-bottom valid key across holding shards — the same key sweep
// would freeze if the tag emitted now. All keys are already on the
// deployment clock, and pair confidence is shift-invariant, so scores are
// comparable across zone boundaries. Pairs touching a tag with no usable
// key (detection still failing in every zone) score 0.
func (se *ShardedEngine) xConfidence(order []epcgen2.EPC) []float64 {
	if len(order) < 2 {
		return nil
	}
	keys := make(map[epcgen2.EPC]stpp.XKey, len(order))
	for _, em := range se.emitted {
		keys[em.EPC] = em.X
	}
	for _, sh := range se.shards {
		if sh.cached == nil {
			continue
		}
		for i := range sh.cached.Tags {
			tr := &sh.cached.Tags[i]
			if tr.Err != nil || se.final[tr.EPC] {
				continue
			}
			if k, ok := keys[tr.EPC]; !ok || tr.X.BottomTime < k.BottomTime {
				keys[tr.EPC] = tr.X
			}
		}
	}
	out := make([]float64, len(order)-1)
	for i := range out {
		a, okA := keys[order[i]]
		b, okB := keys[order[i+1]]
		if okA && okB {
			out[i] = stpp.PairConfidence(a, b)
		}
	}
	return out
}

// Release returns every shard engine's pooled holdings (per-tag DTW
// matrices) to their shared free-lists — call when the deployment's
// session is over so the next session reuses them instead of
// re-allocating. The engine remains usable.
func (se *ShardedEngine) Release() {
	for _, sh := range se.shards {
		sh.eng.Release()
	}
}

// Close is Release plus dropping every per-shard reference — profiles,
// cached results, detection states and the deployment's lifecycle state —
// returning the engine to its freshly-constructed state. A dropped or
// evicted ingest session calls it so the engine stops pinning its largest
// allocations the moment the session goes away.
func (se *ShardedEngine) Close() {
	for _, sh := range se.shards {
		sh.eng.Close()
		sh.cached = nil
		sh.dirty = false
	}
	se.late, se.discarded = 0, 0
	se.emitted, se.finalOrder, se.routeBuf = nil, nil, nil
	se.xStitch.reset()
	se.yStitch.reset()
	if se.policy.Enabled() {
		se.final = make(map[epcgen2.EPC]bool)
	} else {
		se.final = nil
	}
}

// Localize runs the engine over a complete read log in one call.
func (se *ShardedEngine) Localize(reads []reader.TagRead) (*GlobalResult, error) {
	if err := se.Consume(reads); err != nil {
		return nil, err
	}
	return se.Snapshot()
}
