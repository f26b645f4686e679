package profile

import (
	"repro/internal/epcgen2"
	"repro/internal/reader"
)

// Builder accumulates per-tag phase profiles incrementally from a read
// stream: each Add is amortized O(1), profiles grow in place, and dirty
// tracking tells a consumer which tags gained reads since it last looked.
// Over a full read log it produces exactly the grouping FromReads does:
// profiles in first-appearance order, each sorted by time. A Builder is not
// safe for concurrent use.
type Builder struct {
	byEPC map[epcgen2.EPC]*builderEntry
	order []epcgen2.EPC
	dirty []epcgen2.EPC // first-touch order since the last TakeDirty
}

type builderEntry struct {
	p      *Profile
	sorted bool // times have arrived in nondecreasing order so far
	dirty  bool
	gen    uint64  // bumped every time the profile is re-sorted
	maxT   float64 // running max read time (profiles may be unsorted)
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{byEPC: make(map[epcgen2.EPC]*builderEntry)}
}

// Add appends one read to its tag's profile.
func (b *Builder) Add(r reader.TagRead) {
	e, ok := b.byEPC[r.EPC]
	if !ok {
		e = &builderEntry{p: &Profile{EPC: r.EPC}, sorted: true}
		b.byEPC[r.EPC] = e
		b.order = append(b.order, r.EPC)
	}
	p := e.p
	if n := len(p.Times); n > 0 && r.Time < p.Times[n-1] {
		e.sorted = false
	}
	if len(p.Times) == 0 || r.Time > e.maxT {
		e.maxT = r.Time
	}
	p.Times = append(p.Times, r.Time)
	p.Phases = append(p.Phases, r.Phase)
	p.RSSI = append(p.RSSI, r.RSSI)
	if !e.dirty {
		e.dirty = true
		b.dirty = append(b.dirty, r.EPC)
	}
}

// AddBatch appends a batch of reads.
func (b *Builder) AddBatch(reads []reader.TagRead) {
	for _, r := range reads {
		b.Add(r)
	}
}

// Tags returns the number of distinct tags seen.
func (b *Builder) Tags() int { return len(b.order) }

// EPCs returns the tags seen so far in first-appearance order. The slice is
// shared with the builder — callers must not mutate it.
func (b *Builder) EPCs() []epcgen2.EPC { return b.order }

// Profile returns the live profile for a tag, sorted by time (sorting only
// happens when reads arrived out of order, which the reader simulator never
// produces). Returns nil for an unseen tag. Later Adds may extend the
// profile in place; callers needing a stable view must copy.
func (b *Builder) Profile(e epcgen2.EPC) *Profile {
	ent, ok := b.byEPC[e]
	if !ok {
		return nil
	}
	if !ent.sorted {
		sortProfile(ent.p)
		ent.sorted = true
		ent.gen++
	}
	return ent.p
}

// Generation counts how many times a tag's profile has been re-sorted; it
// only moves when an out-of-order read forced Profile to re-order history.
// Consumers holding incremental state derived from the profile (segment
// caches, DTW aligners) compare generations after Profile to learn whether
// the profile grew append-only (same generation — resume) or was reshuffled
// (new generation — rebuild). Returns 0 for an unseen tag.
func (b *Builder) Generation(e epcgen2.EPC) uint64 {
	ent, ok := b.byEPC[e]
	if !ok {
		return 0
	}
	return ent.gen
}

// Profiles returns all profiles in first-appearance order, each sorted by
// time. The profiles are live (see Profile).
func (b *Builder) Profiles() []*Profile {
	out := make([]*Profile, len(b.order))
	for i, e := range b.order {
		out[i] = b.Profile(e)
	}
	return out
}

// MaxTime returns the latest read time a tag's profile holds, valid even
// while the profile has a pending unsorted tail (it is tracked at Add, not
// derived from the last element). The second result is false for an unseen
// tag. The finalize path uses it for the quiet-gap test without forcing
// the lazy re-sort.
func (b *Builder) MaxTime(e epcgen2.EPC) (float64, bool) {
	ent, ok := b.byEPC[e]
	if !ok {
		return 0, false
	}
	return ent.maxT, true
}

// Remove evicts a tag's profile entirely: the entry, its slot in the
// first-appearance order, and any pending dirty mark. Order among the
// surviving tags is preserved. Removing an unseen tag is a no-op.
func (b *Builder) Remove(e epcgen2.EPC) {
	ent, ok := b.byEPC[e]
	if !ok {
		return
	}
	delete(b.byEPC, e)
	for i, o := range b.order {
		if o == e {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	if ent.dirty {
		for i, o := range b.dirty {
			if o == e {
				b.dirty = append(b.dirty[:i], b.dirty[i+1:]...)
				break
			}
		}
	}
}

// TakeDirty returns the tags that gained reads since the previous call, in
// first-touch order, and resets the dirty set.
func (b *Builder) TakeDirty() []epcgen2.EPC {
	if len(b.dirty) == 0 {
		return nil
	}
	out := b.dirty
	b.dirty = nil
	for _, e := range out {
		b.byEPC[e].dirty = false
	}
	return out
}
