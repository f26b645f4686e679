package deploy

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/pipeline"
)

// shardedCkptVersion versions the ShardedEngine checkpoint encoding.
// Version 2 added the deployment-level lifecycle state: the router's
// late-read count, the global emission stream and the finalized-tag set.
const shardedCkptVersion = 2

// Checkpoint serializes every shard engine in zone order (byte-stable:
// the shard slice has a fixed deterministic order), appending to dst.
// Cached global snapshots are not serialized — they are deterministic
// functions of the shard states and the first Snapshot after a restore
// recomputes them bit-identically.
func (se *ShardedEngine) Checkpoint(dst []byte) []byte {
	dst = ckpt.AppendU8(dst, shardedCkptVersion)
	dst = ckpt.AppendU32(dst, uint32(len(se.shards)))
	for _, sh := range se.shards {
		dst = ckpt.AppendU64(dst, uint64(int64(sh.spec.ID)))
		dst = sh.eng.Checkpoint(dst)
	}
	dst = ckpt.AppendU64(dst, uint64(se.late))
	dst = ckpt.AppendU32(dst, uint32(len(se.emitted)))
	for _, em := range se.emitted {
		dst = appendEmittedTag(dst, em)
	}
	return pipeline.AppendFinalSet(dst, se.finalOrder)
}

// Restore rebuilds the shard engines from Checkpoint output. The engine
// must have been constructed from the same Deployment (shard IDs are
// verified). Every restored shard is marked dirty with its cache dropped,
// so the next Snapshot re-assembles from the restored per-tag state.
func (se *ShardedEngine) Restore(data []byte) error {
	r := ckpt.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != shardedCkptVersion {
		r.Failf("sharded checkpoint version %d", v)
	}
	if n := int(r.U32()); r.Err() == nil && n != len(se.shards) {
		r.Failf("%d shards in checkpoint, engine has %d", n, len(se.shards))
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("deploy: restore: %w", err)
	}
	for _, sh := range se.shards {
		if id := int(int64(r.U64())); r.Err() == nil && id != sh.spec.ID {
			r.Failf("checkpoint shard %d, engine expects reader %d", id, sh.spec.ID)
		}
		if err := r.Err(); err != nil {
			return fmt.Errorf("deploy: restore: %w", err)
		}
		if err := sh.eng.RestoreCheckpoint(r); err != nil {
			return fmt.Errorf("deploy: restore reader %d: %w", sh.spec.ID, err)
		}
		sh.dirty = true
		sh.cached = nil
	}
	late := int64(r.U64())
	var emitted []EmittedTag
	if n := int(r.U32()); r.Err() == nil {
		for i := 0; i < n && r.Err() == nil; i++ {
			emitted = append(emitted, readEmittedTag(r))
		}
	}
	final, finalOrder := pipeline.ReadFinalSet(r, se.policy.Enabled())
	if err := r.Err(); err != nil {
		return fmt.Errorf("deploy: restore: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("deploy: restore: %d trailing bytes", r.Len())
	}
	se.late, se.emitted = late, emitted
	se.final, se.finalOrder = final, finalOrder
	return nil
}

// appendEmittedTag serializes one emission-stream entry: the raw EPC bytes
// plus the seven XKey floats. The compact per-tag footprint is what keeps
// checkpoint blobs flat in belt length.
func appendEmittedTag(dst []byte, em EmittedTag) []byte {
	dst = append(dst, em.EPC[:]...)
	k := em.X
	dst = ckpt.AppendF64(dst, k.BottomTime)
	dst = ckpt.AppendF64(dst, k.BottomPhase)
	dst = ckpt.AppendF64(dst, k.Fit.A)
	dst = ckpt.AppendF64(dst, k.Fit.B)
	dst = ckpt.AppendF64(dst, k.Fit.C)
	dst = ckpt.AppendF64(dst, k.R2)
	dst = ckpt.AppendF64(dst, k.Sigma)
	return dst
}

// readEmittedTag decodes one appendEmittedTag entry.
func readEmittedTag(r *ckpt.Reader) (em EmittedTag) {
	for j := range em.EPC {
		em.EPC[j] = r.U8()
	}
	em.X.BottomTime = r.F64()
	em.X.BottomPhase = r.F64()
	em.X.Fit.A = r.F64()
	em.X.Fit.B = r.F64()
	em.X.Fit.C = r.F64()
	em.X.R2 = r.F64()
	em.X.Sigma = r.F64()
	return em
}
