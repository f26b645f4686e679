package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/epcgen2"
	"repro/internal/profile"
	"repro/internal/stpp"
)

// engineCkptVersion versions the Engine checkpoint encoding. Version 2
// added the tag lifecycle: frontier, late-read count, an emission-stream
// count (always 0 since the deploy coordinator owns emission; the field
// keeps the layout) and the finalized-tag set. Evicted tags appear ONLY
// there — their profiles and detection states are gone — so on an
// endless belt the blob is sized by the active set plus a compact
// finalized summary, flat in belt length. Version 3 added
// the X key's Sigma (bottom-time uncertainty) to every serialized key,
// so restored engines publish the same per-pair confidences as the
// engines that wrote them. Version 4 cut each tag's detection state to
// four counters. Version 5 journals no detection state and no profile
// generations: a restored tag starts cold. Version 6 drops what the
// leading recompute in Checkpoint made constant (the per-tag has-cached
// byte, the builder's dirty set and per-profile sorted byte) and the
// emission count and finalized set a shard no longer keeps: the deploy
// coordinator holds the deployment's one finalized set. RestoreCheckpoint
// reads this version only; any other fails with ckpt.ErrCorrupt.
const engineCkptVersion = 6

// Checkpoint serializes the engine's state — the profile builder and
// every tag's cached per-tag result — appending to dst. The encoding is
// byte-stable: it iterates the builder's first-appearance order, never a
// map, so checkpointing the same state twice yields identical bytes.
//
// A tag's resumable detection state (segment cache, DTW columns,
// unwrap/median curves) is not journaled: it is a deterministic function
// of the profile, so the restoring side starts every tag cold and the
// tag's first detection rebuilds it. By the incremental contract an
// engine restored from this checkpoint behaves byte-identically to the
// engine that wrote it: same snapshot results, same future checkpoints
// after the same suffix of reads.
//
// Checkpoint first runs the recompute a Snapshot runs, minus the
// assembly, so every resident tag has a cached result covering all its
// reads, and the builder holds no dirty tag and no unsorted profile. The
// blob then depends only on the reads consumed, not on when the last
// snapshot ran: two engines fed the same reads write the same bytes
// whatever their snapshot cadence.
func (e *Engine) Checkpoint(dst []byte) []byte {
	e.recompute(e.builder.TakeDirty())
	dst = ckpt.AppendU8(dst, engineCkptVersion)
	dst = ckpt.AppendU64(dst, uint64(e.reads))
	dst = e.builder.AppendCheckpoint(dst)
	epcs := e.builder.EPCs()
	dst = ckpt.AppendU32(dst, uint32(len(epcs)))
	for _, epc := range epcs {
		tr := e.cached[epc]
		dst = ckpt.AppendU64(dst, uint64(tr.VZone.Start))
		dst = ckpt.AppendU64(dst, uint64(tr.VZone.End))
		dst = ckpt.AppendF64(dst, tr.VZone.Cost)
		dst = ckpt.AppendF64(dst, tr.X.BottomTime)
		dst = ckpt.AppendF64(dst, tr.X.BottomPhase)
		dst = ckpt.AppendF64(dst, tr.X.Fit.A)
		dst = ckpt.AppendF64(dst, tr.X.Fit.B)
		dst = ckpt.AppendF64(dst, tr.X.Fit.C)
		dst = ckpt.AppendF64(dst, tr.X.R2)
		dst = ckpt.AppendF64(dst, tr.X.Sigma)
		if tr.Err != nil {
			dst = ckpt.AppendU8(dst, 1)
			dst = ckpt.AppendString(dst, tr.Err.Error())
		} else {
			dst = ckpt.AppendU8(dst, 0)
		}
	}
	dst = ckpt.AppendF64(dst, e.frontier)
	return ckpt.AppendU64(dst, uint64(e.late))
}

// RestoreCheckpoint rebuilds the engine from Checkpoint output read
// sequentially from r, replacing any current contents. A version other
// than engineCkptVersion fails with ckpt.ErrCorrupt. Cached V-zones are
// checked against their restored profiles, and a profile whose times
// decrease fails the builder's restore, so a CRC-valid but hostile blob
// fails here instead of panicking a later Snapshot. Every restored
// profile gets a cold detection state, so the Y stage resumes curves from
// its first snapshot on instead of re-unwrapping clean tags one-shot on
// every snapshot. On error the engine is left empty (as if freshly
// constructed).
func (e *Engine) RestoreCheckpoint(r *ckpt.Reader) error {
	reset := e.resetEmpty
	if v := r.U8(); r.Err() == nil && v != engineCkptVersion {
		r.Failf("engine checkpoint version %d", v)
	}
	reads := int64(r.U64())
	if err := e.builder.RestoreCheckpoint(r); err != nil {
		reset()
		return fmt.Errorf("pipeline: restore builder: %w", err)
	}
	cached := make(map[epcgen2.EPC]stpp.TagResult)
	states := make(map[epcgen2.EPC]*tagState)
	epcs := e.builder.EPCs()
	if n := r.Count(1, "tag entries"); r.Err() == nil && n != len(epcs) {
		r.Failf("%d tag entries for %d profiles", n, len(epcs))
	}
	for _, epc := range epcs {
		if r.Err() != nil {
			break
		}
		p := e.builder.Profile(epc)
		states[epc] = &tagState{det: e.loc.NewDetectState(), gen: e.builder.Generation(epc)}
		tr := stpp.TagResult{EPC: epc, Profile: p}
		tr.VZone.Start = int(r.U64())
		tr.VZone.End = int(r.U64())
		tr.VZone.Cost = r.F64()
		tr.X.BottomTime = r.F64()
		tr.X.BottomPhase = r.F64()
		tr.X.Fit.A = r.F64()
		tr.X.Fit.B = r.F64()
		tr.X.Fit.C = r.F64()
		tr.X.R2 = r.F64()
		tr.X.Sigma = r.F64()
		if r.U8() != 0 {
			tr.Err = errors.New(r.String())
		}
		if vz := tr.VZone; r.Err() == nil && (vz.Start < 0 || vz.End < vz.Start || vz.End > p.Len()) {
			r.Failf("tag %v: cached V-zone [%d, %d) outside its %d-sample profile", epc, vz.Start, vz.End, p.Len())
		}
		cached[epc] = tr
	}
	frontier := r.F64()
	late := int64(r.U64())
	if err := r.Err(); err != nil {
		reset()
		return fmt.Errorf("pipeline: restore: %w", err)
	}
	e.cached, e.states, e.reads = cached, states, reads
	e.frontier, e.late = frontier, late
	return nil
}

// resetEmpty returns the engine to its freshly-constructed state.
func (e *Engine) resetEmpty() {
	e.builder = profile.NewBuilder()
	e.cached = make(map[epcgen2.EPC]stpp.TagResult)
	e.states = make(map[epcgen2.EPC]*tagState)
	e.reads = 0
	e.frontier, e.late = 0, 0
}

// Restore is RestoreCheckpoint over a standalone blob, requiring the blob
// to be fully consumed. On any error — trailing bytes included — the
// engine is left empty.
func (e *Engine) Restore(data []byte) error {
	r := ckpt.NewReader(data)
	if err := e.RestoreCheckpoint(r); err != nil {
		return err
	}
	if r.Len() != 0 {
		e.resetEmpty()
		return fmt.Errorf("pipeline: restore: %d trailing bytes", r.Len())
	}
	return nil
}
