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
// generations: a restored tag starts cold. RestoreCheckpoint reads this
// version only; any other fails with ckpt.ErrCorrupt.
const engineCkptVersion = 5

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
// assembly, so the cached results it writes cover every consumed read
// and the dirty set it writes is empty. Both then depend only on the
// reads consumed, not on when the last snapshot ran: two engines fed the
// same reads write the same bytes whatever their snapshot cadence.
func (e *Engine) Checkpoint(dst []byte) []byte {
	e.recompute(e.builder.TakeDirty())
	dst = ckpt.AppendU8(dst, engineCkptVersion)
	dst = ckpt.AppendU64(dst, uint64(e.reads))
	dst = e.builder.AppendCheckpoint(dst)
	epcs := e.builder.EPCs()
	dst = ckpt.AppendU32(dst, uint32(len(epcs)))
	for _, epc := range epcs {
		tr, hasCached := e.cached[epc]
		if !hasCached {
			dst = ckpt.AppendU8(dst, 0)
		} else {
			dst = ckpt.AppendU8(dst, 1)
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
	}
	dst = ckpt.AppendF64(dst, e.frontier)
	dst = ckpt.AppendU64(dst, uint64(e.late))
	dst = ckpt.AppendU32(dst, 0) // emission-stream count: shards never emit
	return AppendFinalSet(dst, e.finalOrder)
}

// AppendFinalSet serializes a finalized-tag set in marking order: a u32
// count, then each EPC's raw bytes. deploy.ShardedEngine checkpoints its
// global set with the same codec.
func AppendFinalSet(dst []byte, order []epcgen2.EPC) []byte {
	dst = ckpt.AppendU32(dst, uint32(len(order)))
	for _, epc := range order {
		dst = append(dst, epc[:]...)
	}
	return dst
}

// ReadFinalSet decodes an AppendFinalSet section into the set and its
// marking order. The set is nil when it is empty and keep is false (a
// disabled lifecycle holds none). A count the remaining input cannot back
// or a duplicate EPC fails the reader before anything is sized by it: a
// CRC-valid blob with a hostile count must not reach a make() hint.
func ReadFinalSet(r *ckpt.Reader, keep bool) (map[epcgen2.EPC]bool, []epcgen2.EPC) {
	n := int(r.U32())
	if r.Err() != nil {
		return nil, nil
	}
	if n > r.Len()/len(epcgen2.EPC{}) {
		r.Failf("%d finalized tags in %d bytes", n, r.Len())
		return nil, nil
	}
	var final map[epcgen2.EPC]bool
	if n > 0 || keep {
		final = make(map[epcgen2.EPC]bool, n)
	}
	var order []epcgen2.EPC
	for i := 0; i < n && r.Err() == nil; i++ {
		var epc epcgen2.EPC
		for j := range epc {
			epc[j] = r.U8()
		}
		if final[epc] {
			r.Failf("duplicate finalized tag %v", epc)
			break
		}
		final[epc] = true
		order = append(order, epc)
	}
	return final, order
}

// RestoreCheckpoint rebuilds the engine from Checkpoint output read
// sequentially from r, replacing any current contents. A version other
// than engineCkptVersion fails with ckpt.ErrCorrupt. Cached V-zones are
// checked against their restored profiles, so a CRC-valid but hostile
// blob fails here instead of panicking a later Snapshot. Every restored
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
	if n := int(r.U32()); r.Err() == nil && n != len(epcs) {
		r.Failf("%d tag entries for %d profiles", n, len(epcs))
	}
	for _, epc := range epcs {
		if r.Err() != nil {
			break
		}
		p := e.builder.LiveProfile(epc)
		states[epc] = &tagState{det: e.loc.NewDetectState(), gen: e.builder.Generation(epc)}
		if r.U8() != 0 {
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
	}
	frontier := r.F64()
	late := int64(r.U64())
	if n := r.U32(); r.Err() == nil && n != 0 {
		r.Failf("%d emitted entries in a shard checkpoint", n)
	}
	final, finalOrder := ReadFinalSet(r, e.policy.Enabled())
	if err := r.Err(); err != nil {
		reset()
		return fmt.Errorf("pipeline: restore: %w", err)
	}
	e.cached, e.states, e.reads = cached, states, reads
	e.frontier, e.late = frontier, late
	e.final, e.finalOrder = final, finalOrder
	return nil
}

// resetEmpty returns the engine to its freshly-constructed state.
func (e *Engine) resetEmpty() {
	e.builder = profile.NewBuilder()
	e.cached = make(map[epcgen2.EPC]stpp.TagResult)
	e.states = make(map[epcgen2.EPC]*tagState)
	e.reads = 0
	e.frontier, e.late = 0, 0
	e.finalOrder = nil
	e.final = nil
	if e.policy.Enabled() {
		e.final = make(map[epcgen2.EPC]bool)
	}
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
