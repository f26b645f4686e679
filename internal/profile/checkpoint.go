package profile

import (
	"repro/internal/ckpt"
	"repro/internal/epcgen2"
)

// AppendCheckpoint serializes the builder: every profile in
// first-appearance order (the iteration order is the order slice, never a
// map, so the encoding is byte-stable). It writes neither the dirty set
// nor the sort flags, so the caller drains the dirty set (TakeDirty) and
// forces every pending re-sort (Profile) first, as pipeline.Engine's
// Checkpoint does; RestoreCheckpoint rejects a profile whose times
// decrease. Generations (see Generation) are not encoded either and
// restore as 0: a generation only means something next to the state a
// consumer built from the same builder, and a restored consumer holds
// none.
func (b *Builder) AppendCheckpoint(dst []byte) []byte {
	dst = ckpt.AppendU32(dst, uint32(len(b.order)))
	for _, e := range b.order {
		ent := b.byEPC[e]
		dst = append(dst, e[:]...)
		dst = ckpt.AppendF64s(dst, ent.p.Times)
		dst = ckpt.AppendF64s(dst, ent.p.Phases)
		dst = ckpt.AppendF64s(dst, ent.p.RSSI)
	}
	return dst
}

// ckptProfileMin is the fewest bytes one encoded profile takes: its EPC
// and three empty series' counts.
const ckptProfileMin = len(epcgen2.EPC{}) + 3*4

func readEPC(r *ckpt.Reader) (e epcgen2.EPC) {
	for i := range e {
		e[i] = r.U8()
	}
	return e
}

// RestoreCheckpoint rebuilds the builder from AppendCheckpoint output,
// replacing any current contents. Every restored profile is sorted and
// clean (not dirty).
func (b *Builder) RestoreCheckpoint(r *ckpt.Reader) error {
	nb := NewBuilder()
	tags := r.Count(ckptProfileMin, "profiles")
	for i := 0; i < tags && r.Err() == nil; i++ {
		e := readEPC(r)
		p := &Profile{EPC: e}
		p.Times = r.F64s(nil)
		p.Phases = r.F64s(nil)
		p.RSSI = r.F64s(nil)
		if r.Err() != nil {
			break
		}
		if len(p.Phases) != len(p.Times) || len(p.RSSI) != len(p.Times) {
			r.Failf("profile %v: ragged series", e)
			break
		}
		if _, dup := nb.byEPC[e]; dup {
			r.Failf("duplicate profile %v", e)
			break
		}
		ent := &builderEntry{p: p, sorted: true}
		// maxT is not serialized: it is the last time of the sorted
		// profile.
		for i, t := range p.Times {
			if i > 0 && t < p.Times[i-1] {
				r.Failf("profile %v: times decrease at sample %d", e, i)
				break
			}
			ent.maxT = t
		}
		nb.byEPC[e] = ent
		nb.order = append(nb.order, e)
	}
	if err := r.Err(); err != nil {
		return err
	}
	*b = *nb
	return nil
}
