package deploy

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/stpp"
	"repro/internal/trace"
)

// FuzzTraceDeployment: an arbitrary JSONL trace — malformed multi-reader
// headers, hostile reader metadata, reads stamped with unknown reader IDs
// — must either replay through the sharded engine or return an error at
// decode, construction, or consume time. It must never panic and never
// silently misroute.
func FuzzTraceDeployment(f *testing.F) {
	f.Add([]byte(`{"scenario":"aisle","readers":[{"id":0,"x_min":0,"x_max":2},{"id":1,"x_min":1.5,"x_max":4}]}
{"epc":"306400000000000000000001","t":0.1,"phase":1.5,"rssi":-60,"ch":6}
{"epc":"306400000000000000000001","t":0.2,"phase":1.4,"rssi":-60,"ch":6,"rdr":1}`))
	f.Add([]byte(`{"readers":[{"id":0,"x_min":0,"x_max":2}]}
{"epc":"306400000000000000000001","t":0.1,"phase":1.5,"rssi":-60,"ch":6,"rdr":99}`))
	f.Add([]byte(`{"readers":[{"id":1},{"id":1}]}`))
	f.Add([]byte(`{"readers":[{"id":1,"x_min":5,"x_max":-5}]}`))
	f.Add([]byte(`{"readers":[{"id":1,"perp_dist":-3,"speed":-1}]}`))
	f.Add([]byte(`{"readers":[{"id":-2147483648,"clock_offset":1e308}]}`))
	f.Add([]byte(`{"perp_dist":1e308,"speed":5e-324}
{"epc":"306400000000000000000001","t":0.1,"phase":1.5,"rssi":-60,"ch":6}`))

	base := stpp.DefaultConfig(0.33)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		se, err := NewSharded(FromHeader(tr.Header, base, false, false), Options{Workers: 1})
		if err != nil {
			return
		}
		for _, rd := range tr.Reads {
			if !se.byID[rd.Reader].valid() {
				if cerr := se.Consume(tr.Reads); cerr == nil {
					t.Fatalf("reads with unknown reader ID consumed without error")
				}
				return
			}
		}
		if err := se.Consume(tr.Reads); err != nil {
			t.Fatalf("all reader IDs known, yet Consume failed: %v", err)
		}
		// Snapshot errors (sparse or degenerate profiles) are expected;
		// panics are not.
		se.Snapshot()
	})
}

// valid reports shard existence on a possibly-nil map entry.
func (sh *shard) valid() bool { return sh != nil }

// FuzzShardedRestore: a CRC-valid but hostile checkpoint — the bytes a
// damaged or tampered WAL checkpoint record hands recovery — must make
// Restore return an error or succeed. It must never panic, and no count
// in the blob may size an allocation beyond what the blob's own bytes can
// back: a lying length prefix has to fail validation before make(), or one
// bad record takes the whole daemon down at boot with an out-of-memory
// fatal.
func FuzzShardedRestore(f *testing.F) {
	type target struct {
		d      Deployment
		policy stpp.FinalizePolicy
	}
	var targets []target
	for _, name := range []string{"portals", "conveyor-churn"} {
		d, tr := goldenTrace(f, name)
		for _, n := range []int{len(tr.Reads) / 8, len(tr.Reads)} {
			se, err := NewSharded(d, Options{Workers: 1, Finalize: portalPolicy()})
			if err != nil {
				f.Fatal(err)
			}
			if _, err := se.Localize(tr.Reads[:n]); err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(len(targets)), se.Checkpoint(nil))
		}
		targets = append(targets, target{d, portalPolicy()})
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		tg := targets[int(which)%len(targets)]
		se, err := NewSharded(tg.d, Options{Workers: 1, Finalize: tg.policy})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		restoreErr := se.Restore(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > restoreAllocBound(len(data)) {
			t.Fatalf("restore of a %d-byte blob allocated %d bytes (err %v)", len(data), grew, restoreErr)
		}
	})
}

// restoreAllocBound is the most a Restore of an n-byte blob may allocate.
// A real checkpoint restores at about 1.5 bytes allocated per blob byte
// (decoded arrays plus maps and per-tag state); the generous slack admits
// adversarial blobs whose small records expand into per-tag structures,
// while a lying 32-bit count — gigabytes — still fails by orders of
// magnitude.
func restoreAllocBound(n int) uint64 { return 64*uint64(n) + 4<<20 }
