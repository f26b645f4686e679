package deploy

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/phys"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/stpp"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden trace corpus and expected orders")

// goldenBase is the fixed replay configuration (the cmd/stpp and stppd
// defaults); headers override the reference geometry per trace via
// FromHeader, exactly like a real replay.
func goldenBase() stpp.Config {
	cfg := stpp.DefaultConfig(phys.ChinaBand.Wavelength(6))
	cfg.Window = 5
	return cfg
}

// goldenCase names one committed trace; gen rebuilds it under -update
// (scenarios are deterministic in the seed, so regeneration is stable).
type goldenCase struct {
	name string
	gen  func() (*trace.Trace, error)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "population", gen: func() (*trace.Trace, error) {
			sc, err := scenario.Population(4, true, 0.3, 11)
			if err != nil {
				return nil, err
			}
			reads, err := sc.Run()
			if err != nil {
				return nil, err
			}
			return &trace.Trace{
				Header: trace.Header{
					Scenario: "population", Seed: 11,
					TruthX: trace.EncodeEPCs(sc.TruthX), TruthY: trace.EncodeEPCs(sc.TruthY),
					PerpDist: sc.PerpDist, Speed: sc.Speed,
				},
				Reads: reads,
			}, nil
		}},
		{name: "conveyor-churn", gen: func() (*trace.Trace, error) {
			sc, err := scenario.ConveyorChurn(8, 0.55, 0.3, 7)
			if err != nil {
				return nil, err
			}
			reads, err := sc.Run()
			if err != nil {
				return nil, err
			}
			return &trace.Trace{
				Header: trace.Header{
					Scenario: "conveyor-churn", Seed: 7,
					TruthX: trace.EncodeEPCs(sc.TruthX), TruthY: trace.EncodeEPCs(sc.TruthY),
					PerpDist: sc.PerpDist, Speed: sc.Speed,
				},
				Reads: reads,
			}, nil
		}},
		{name: "aisle", gen: func() (*trace.Trace, error) {
			o := scenario.DefaultAisleOpts(12)
			o.Tags = 4
			o.Speed = 0.5
			ms, err := scenario.WarehouseAisle(o)
			if err != nil {
				return nil, err
			}
			return multiTrace("aisle", 12, ms)
		}},
		{name: "portals", gen: func() (*trace.Trace, error) {
			o := scenario.DefaultPortalsOpts(3, 13)
			o.BeltSpeed = 0.6
			o.PortalGap = 2.0
			ms, err := scenario.AirportPortals(o)
			if err != nil {
				return nil, err
			}
			return multiTrace("airport-portals", 13, ms)
		}},
	}
}

func multiTrace(name string, seed int64, ms *scenario.MultiScene) (*trace.Trace, error) {
	reads, err := ms.Run()
	if err != nil {
		return nil, err
	}
	return &trace.Trace{
		Header: trace.Header{
			Scenario: name, Seed: seed,
			TruthX: trace.EncodeEPCs(ms.TruthX), TruthY: trace.EncodeEPCs(ms.TruthY),
			Readers: ms.ReaderMetas(),
		},
		Reads: reads,
	}, nil
}

// TestGoldenTraces is the regression corpus: committed traces with
// committed expected global orders. Both the sharded deployment engine
// and (for single-reader traces) the plain streaming engine must replay
// every trace to the byte-identical committed orders — any silent
// accuracy or determinism drift in the reader→profile→STPP path fails
// this test before it reaches a daemon.
//
// Regenerate with: go test ./internal/deploy -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			tracePath := filepath.Join("testdata", "golden", gc.name+".jsonl")
			orderPath := filepath.Join("testdata", "golden", gc.name+".golden")
			if *updateGolden {
				tr, err := gc.gen()
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
					t.Fatal(err)
				}
				f, err := os.Create(tracePath)
				if err != nil {
					t.Fatal(err)
				}
				if err := trace.WriteJSONL(f, tr); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			d, tr := goldenTrace(t, gc.name)
			se, err := NewSharded(d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := se.Localize(tr.Reads)
			if err != nil {
				t.Fatal(err)
			}
			gotX := trace.EncodeEPCs(res.XOrder)
			gotY := trace.EncodeEPCs(res.YOrder)
			gotCkpt := lifecycleCkptDigest(t, d, tr)

			if *updateGolden {
				content := "x: " + strings.Join(gotX, " ") + "\ny: " + strings.Join(gotY, " ") +
					"\nckpt: " + gotCkpt + "\n"
				if err := os.WriteFile(orderPath, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wantX, wantY, wantCkpt := readGolden(t, orderPath)
			if gotCkpt != wantCkpt {
				t.Errorf("lifecycle checkpoint bytes drifted from the committed golden:\n  got  sha256 %s\n  want sha256 %s", gotCkpt, wantCkpt)
			}
			if !slices.Equal(gotX, wantX) {
				t.Errorf("sharded X order drifted from the committed golden:\n  got  %v\n  want %v", gotX, wantX)
			}
			if !slices.Equal(gotY, wantY) {
				t.Errorf("sharded Y order drifted from the committed golden:\n  got  %v\n  want %v", gotY, wantY)
			}

			if len(tr.Header.Readers) == 0 {
				// Single reader: the plain streaming engine must agree with
				// both the golden and the sharded replay.
				eng, err := pipeline.New(d.Readers[0].Config, pipeline.Options{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Localize(tr.Reads)
				if err != nil {
					t.Fatal(err)
				}
				px := trace.EncodeEPCs(res.XOrderEPCs())
				py := trace.EncodeEPCs(res.YOrderEPCs())
				if !slices.Equal(px, wantX) || !slices.Equal(py, wantY) {
					t.Errorf("pipeline engine drifted from the committed golden:\n  got  %v / %v\n  want %v / %v",
						px, py, wantX, wantY)
				}
			}
		})
	}
}

// goldenTrace loads a committed corpus trace and the deployment its header
// describes under the fixed replay configuration.
func goldenTrace(t testing.TB, name string) (Deployment, *trace.Trace) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "golden", name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return FromHeader(tr.Header, goldenBase(), false, false), tr
}

// lifecycleCkptDigest replays the trace through a sharded engine under
// the portal lifecycle policy and returns the SHA-256 of its checkpoint.
// The digest pins the checkpoint byte format — shard layout, per-tag
// detection state and the lifecycle sections — so an encoding change
// shows up as a golden diff, not as WALs that silently stop restoring.
func lifecycleCkptDigest(t *testing.T, d Deployment, tr *trace.Trace) string {
	t.Helper()
	se, err := NewSharded(d, Options{Finalize: portalPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Localize(tr.Reads); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(se.Checkpoint(nil))
	return hex.EncodeToString(sum[:])
}

func readGolden(t *testing.T, path string) (x, y []string, ckptDigest string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		switch {
		case strings.HasPrefix(line, "x: "):
			x = strings.Fields(strings.TrimPrefix(line, "x: "))
		case strings.HasPrefix(line, "y: "):
			y = strings.Fields(strings.TrimPrefix(line, "y: "))
		case strings.HasPrefix(line, "ckpt: "):
			ckptDigest = strings.TrimPrefix(line, "ckpt: ")
		default:
			t.Fatalf("unrecognized golden line %q", line)
		}
	}
	if len(x) == 0 || len(y) == 0 || ckptDigest == "" {
		t.Fatalf("golden file %s is incomplete", path)
	}
	return x, y, ckptDigest
}

// TestGoldenTracesAreFresh guards the corpus against rot: the committed
// trace must still be exactly what its generator produces, so -update is
// reproducible and the corpus cannot silently diverge from the scenarios.
func TestGoldenTracesAreFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("golden freshness check in -short mode")
	}
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			tr, err := gc.gen()
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := trace.WriteJSONL(&sb, tr); err != nil {
				t.Fatal(err)
			}
			disk, err := os.ReadFile(filepath.Join("testdata", "golden", gc.name+".jsonl"))
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if sb.String() != string(disk) {
				t.Errorf("committed %s.jsonl no longer matches its generator (run -update and review the order diff)", gc.name)
			}
		})
	}
}
