package profile

import (
	"repro/internal/ckpt"
	"repro/internal/epcgen2"
)

// AppendCheckpoint serializes the builder: every profile in
// first-appearance order (the iteration order is the order slice, never a
// map, so the encoding is byte-stable), then the pending dirty set in
// first-touch order. Restoring reproduces the builder exactly, including
// which tags a consumer has not yet drained via TakeDirty, except for the
// generations (see Generation): they are not encoded and restore as 0. A
// generation only means something next to the state a consumer built
// from the same builder, and a restored consumer holds none.
func (b *Builder) AppendCheckpoint(dst []byte) []byte {
	dst = ckpt.AppendU32(dst, uint32(len(b.order)))
	for _, e := range b.order {
		ent := b.byEPC[e]
		dst = append(dst, e[:]...)
		sorted := uint8(0)
		if ent.sorted {
			sorted = 1
		}
		dst = ckpt.AppendU8(dst, sorted)
		dst = ckpt.AppendF64s(dst, ent.p.Times)
		dst = ckpt.AppendF64s(dst, ent.p.Phases)
		dst = ckpt.AppendF64s(dst, ent.p.RSSI)
	}
	dst = ckpt.AppendU32(dst, uint32(len(b.dirty)))
	for _, e := range b.dirty {
		dst = append(dst, e[:]...)
	}
	return dst
}

func readEPC(r *ckpt.Reader) (e epcgen2.EPC) {
	for i := range e {
		e[i] = r.U8()
	}
	return e
}

// RestoreCheckpoint rebuilds the builder from AppendCheckpoint output,
// replacing any current contents.
func (b *Builder) RestoreCheckpoint(r *ckpt.Reader) error {
	nb := NewBuilder()
	tags := int(r.U32())
	for i := 0; i < tags && r.Err() == nil; i++ {
		e := readEPC(r)
		sorted := r.U8()
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
		ent := &builderEntry{p: p, sorted: sorted != 0}
		// maxT is not serialized — recompute it (the scan is O(profile),
		// but restore already reads every sample anyway).
		for i, t := range p.Times {
			if i == 0 || t > ent.maxT {
				ent.maxT = t
			}
		}
		nb.byEPC[e] = ent
		nb.order = append(nb.order, e)
	}
	dirty := int(r.U32())
	for i := 0; i < dirty && r.Err() == nil; i++ {
		e := readEPC(r)
		ent, ok := nb.byEPC[e]
		if !ok || ent.dirty {
			r.Failf("dirty set references %v", e)
			break
		}
		ent.dirty = true
		nb.dirty = append(nb.dirty, e)
	}
	if err := r.Err(); err != nil {
		return err
	}
	*b = *nb
	return nil
}
