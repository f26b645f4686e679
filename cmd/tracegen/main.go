// Command tracegen generates synthetic RFID read traces from the built-in
// scenarios and writes them as JSONL. Multi-reader
// scenarios (aisle, airport-portals) record one merged trace with each
// read stamped by its reader and the deployment geometry in the header, so
// stpp can shard and stitch the replay.
//
// Usage:
//
//	tracegen -scenario library -seed 7 -o shelf.jsonl
//	tracegen -scenario airport-peak -bags 40 -o peak.jsonl
//	tracegen -scenario population -n 20 -o pop.jsonl
//	tracegen -scenario conveyor-churn -n 24 -gap 0.55 -o belt.jsonl
//	tracegen -scenario aisle -n 16 -o aisle.jsonl
//	tracegen -scenario airport-portals -n 12 -portals 3 -o portals.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	var (
		name    = flag.String("scenario", "population", "scenario: population | conveyor | conveyor-churn | library | airport-peak | airport-offpeak | pair-x | pair-y | aisle | airport-portals")
		n       = flag.Int("n", 10, "tag/bag count (population, conveyor, conveyor-churn, airport, aisle, airport-portals)")
		dist    = flag.Float64("dist", 0.08, "pair spacing in meters (pair-x, pair-y)")
		gap     = flag.Float64("gap", 0.55, "tag spacing along the belt in meters (conveyor-churn)")
		portals = flag.Int("portals", 2, "portal count (airport-portals)")
		seed    = flag.Int64("seed", 1, "seed")
		out     = flag.String("o", "-", "output file ('-' = stdout)")
	)
	flag.Parse()

	var tr *trace.Trace
	var tagCount int
	if ms, err := buildMultiScene(*name, *n, *portals, *seed); err != nil {
		fatal(err)
	} else if ms != nil {
		reads, err := ms.Run()
		if err != nil {
			fatal(err)
		}
		tr = &trace.Trace{
			Header: trace.Header{
				Scenario: *name,
				Seed:     *seed,
				TruthX:   trace.EncodeEPCs(ms.TruthX),
				TruthY:   trace.EncodeEPCs(ms.TruthY),
			},
			Reads: reads,
		}
		tr.Header.Readers = ms.ReaderMetas()
		tagCount = ms.Tags()
	} else {
		sc, err := buildScene(*name, *n, *dist, *gap, *seed)
		if err != nil {
			fatal(err)
		}
		reads, err := sc.Run()
		if err != nil {
			fatal(err)
		}
		tr = &trace.Trace{
			Header: trace.Header{
				Scenario: *name,
				Seed:     *seed,
				TruthX:   trace.EncodeEPCs(sc.TruthX),
				TruthY:   trace.EncodeEPCs(sc.TruthY),
				PerpDist: sc.PerpDist,
				Speed:    sc.Speed,
			},
			Reads: reads,
		}
		tagCount = len(sc.Tags)
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteJSONL(w, tr); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d reads (%d tags) for scenario %s\n",
		len(tr.Reads), tagCount, *name)
}

// buildMultiScene returns the multi-reader deployment for the named
// scenario, or nil when the name is a single-reader scenario.
func buildMultiScene(name string, n, portals int, seed int64) (*scenario.MultiScene, error) {
	switch name {
	case "aisle":
		o := scenario.DefaultAisleOpts(seed)
		o.Tags = n
		return scenario.WarehouseAisle(o)
	case "airport-portals":
		o := scenario.DefaultPortalsOpts(n, seed)
		o.Portals = portals
		return scenario.AirportPortals(o)
	default:
		return nil, nil
	}
}

func buildScene(name string, n int, dist, gap float64, seed int64) (*scenario.Scene, error) {
	switch name {
	case "population":
		return scenario.Population(n, true, 0.3, seed)
	case "conveyor":
		return scenario.ConveyorPopulation(n, 0.3, seed)
	case "conveyor-churn":
		return scenario.ConveyorChurn(n, gap, 0.3, seed)
	case "library":
		lib, err := scenario.NewLibrary(scenario.DefaultLibraryOpts(seed))
		if err != nil {
			return nil, err
		}
		return lib.ScanLevel(0, seed)
	case "airport-peak":
		return scenario.Airport(scenario.PeakHourOpts(n, seed))
	case "airport-offpeak":
		return scenario.Airport(scenario.OffPeakOpts(n, seed))
	case "pair-x":
		return scenario.Pair(dist, "x", true, 0.3, seed)
	case "pair-y":
		return scenario.Pair(dist, "y", true, 0.3, seed)
	default:
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
