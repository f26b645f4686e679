// Command stpp runs STPP relative localization over a recorded trace
// (JSONL, as produced by tracegen) and prints the recovered X and Y
// orders, per-tag diagnostics, and — when the trace carries ground truth —
// the ordering accuracy. Every trace replays through the sharded engine
// stppd runs: reads route to per-reader shards (one for a trace without
// deployment metadata), each zone is localized independently, and the
// per-zone orders are stitched into the global order.
//
// Usage:
//
//	tracegen -scenario library -o shelf.jsonl
//	stpp -in shelf.jsonl
//	stpp -in pop.jsonl -w 5
//	stpp -in shelf.jsonl -stream -every 2   # incremental snapshots
//	tracegen -scenario aisle -o aisle.jsonl
//	stpp -in aisle.jsonl                    # sharded replay + stitch
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	"repro/internal/deploy"
	"repro/internal/epcgen2"
	"repro/internal/metrics"
	"repro/internal/phys"
	"repro/internal/reader"
	"repro/internal/stpp"
	"repro/internal/trace"
)

func main() {
	var (
		in      = flag.String("in", "-", "input trace ('-' = stdin)")
		window  = flag.Int("w", 5, "segmentation window w")
		ch      = flag.Int("channel", 6, "carrier channel for the reference wavelength")
		perp    = flag.Float64("perp", 0, "override perpendicular distance (m); 0 = use trace header")
		speed   = flag.Float64("speed", 0, "override sweep speed (m/s); 0 = use trace header")
		stream  = flag.Bool("stream", false, "replay the trace through the streaming engine, printing incremental snapshots")
		every   = flag.Float64("every", 1, "streaming snapshot interval in trace seconds")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the replay to this file")
		memProf = flag.String("memprofile", "", "write a heap profile after the replay to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	tr, err := trace.ReadJSONL(r)
	if err != nil {
		fatal(err)
	}

	// Precedence everywhere: explicit flags > per-reader header metadata >
	// header-level geometry > defaults. The derivation lives in
	// deploy.FromHeader, shared with stppd and loadgen so all replays of
	// one trace configure identically; a header without readers becomes a
	// one-reader deployment.
	cfg := stpp.DefaultConfig(phys.ChinaBand.Wavelength(*ch))
	cfg.Window = *window
	if *perp > 0 {
		cfg.Reference.PerpDist = *perp
	}
	if *speed > 0 {
		cfg.Reference.Speed = *speed
	}
	if err := runDeployment(tr, cfg, *stream, *every, *perp > 0, *speed > 0); err != nil {
		fatal(err)
	}
}

// runDeployment replays a trace through the sharded engine: one pipeline
// shard per reader described in the header (one for a header without
// readers), per-zone localization with its per-tag table, and the
// stitched global orders (with accuracy when the trace carries ground
// truth). With stream set, reads are fed in
// `every`-second windows with a progress line per intermediate snapshot —
// the final result is identical to the one-shot replay.
func runDeployment(tr *trace.Trace, base stpp.Config, stream bool, every float64, perpFixed, speedFixed bool) error {
	d := deploy.FromHeader(tr.Header, base, perpFixed, speedFixed)
	se, err := deploy.NewSharded(d, deploy.Options{})
	if err != nil {
		return err
	}
	var res *deploy.GlobalResult
	if stream {
		res, err = streamDeployment(se, tr.Reads, every)
	} else {
		res, err = se.Localize(tr.Reads)
	}
	if err != nil {
		return err
	}

	fmt.Printf("deployment: %d readers, %d reads\n\n", se.Shards(), se.Reads())
	for _, sh := range res.Shards {
		fmt.Printf("zone [%.2f, %.2f] m — reader %d:\n", sh.Zone.XMin, sh.Zone.XMax, sh.ReaderID)
		if sh.Result == nil {
			fmt.Println("  (no reads)")
			continue
		}
		located := 0
		for _, tag := range sh.Result.Tags {
			if tag.Err == nil {
				located++
			}
		}
		fmt.Printf("  %d tags, %d located\n  X order: %s\n",
			len(sh.Result.Tags), located, epcList(sh.Result.XOrderEPCs()))
		printTags(sh.Result.Tags)
	}

	fmt.Println("\nstitched global X order (movement axis):")
	for i, e := range res.XOrder {
		fmt.Printf("  %2d. %s\n", i+1, e)
	}
	fmt.Println("stitched global Y order (nearest to trajectory first):")
	for i, e := range res.YOrder {
		fmt.Printf("  %2d. %s\n", i+1, e)
	}

	if truth, err := tr.TruthXEPCs(); err == nil && len(truth) == len(res.XOrder) {
		if acc, err := metrics.OrderingAccuracy(res.XOrder, truth); err == nil {
			fmt.Printf("\nX ordering accuracy vs ground truth: %.0f%%\n", acc*100)
		}
	}
	if truth, err := tr.TruthYEPCs(); err == nil && len(truth) == len(res.YOrder) {
		if acc, err := metrics.OrderingAccuracy(res.YOrder, truth); err == nil {
			fmt.Printf("Y ordering accuracy vs ground truth: %.0f%%\n", acc*100)
		}
	}
	return nil
}

// streamDeployment feeds a recorded log through the sharded engine in
// `every`-second windows of trace time, printing a progress line after
// every window with reads except the last, and returns the final
// snapshot. Empty windows (gaps in the trace) are skipped — they cannot
// change a result.
func streamDeployment(se *deploy.ShardedEngine, reads []reader.TagRead, every float64) (*deploy.GlobalResult, error) {
	if every <= 0 {
		every = 1
	}
	for start, window := 0, 1; start < len(reads); window++ {
		limit := reads[0].Time + float64(window)*every
		end := start
		for end < len(reads) && reads[end].Time < limit {
			end++
		}
		if end == start {
			continue
		}
		if err := se.Consume(reads[start:end]); err != nil {
			return nil, err
		}
		start = end
		if end == len(reads) {
			break
		}
		if res, err := se.Snapshot(); err == nil {
			// Overlap tags are profiled once per shard, so count the
			// stitched distinct tags, not ShardedEngine.Tags().
			fmt.Printf("t=%6.2fs  %4d reads  %3d tags seen  %d shard profiles\n",
				limit-reads[0].Time, end, len(res.XOrder), se.Tags())
		}
	}
	return se.Snapshot()
}

// printTags renders one zone's per-tag diagnostics as a table.
func printTags(tags []stpp.TagResult) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  EPC\tREADS\tVZONE\tBOTTOM_S\tFIT_R2\tY_SIGNED\tERROR")
	for _, tag := range tags {
		errStr := ""
		if tag.Err != nil {
			errStr = tag.Err.Error()
		}
		fmt.Fprintf(tw, "  %s\t%d\t[%d,%d)\t%.3f\t%.3f\t%+.2f\t%s\n",
			tag.EPC, tag.Profile.Len(), tag.VZone.Start, tag.VZone.End,
			tag.X.BottomTime, tag.X.R2, tag.Y.Signed, errStr)
	}
	tw.Flush()
}

// epcList renders EPCs space-separated on one line.
func epcList(epcs []epcgen2.EPC) string {
	return strings.Join(trace.EncodeEPCs(epcs), " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stpp:", err)
	os.Exit(1)
}
