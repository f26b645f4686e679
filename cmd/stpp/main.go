// Command stpp runs STPP relative localization over a recorded trace
// (JSONL, as produced by tracegen) and prints the recovered X and Y
// orders, per-tag diagnostics, and — when the trace carries ground truth —
// the ordering accuracy. A trace whose header describes a multi-reader
// deployment is replayed through the sharded engine: reads route to
// per-reader shards, each zone is localized independently, and the
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
	"repro/internal/pipeline"
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
	// header-level geometry > defaults. The multi-reader derivation lives
	// in deploy.FromHeader, shared with stppd and loadgen so all replays
	// of one trace configure identically.
	cfg := stpp.DefaultConfig(phys.ChinaBand.Wavelength(*ch))
	cfg.Window = *window
	if *perp > 0 {
		cfg.Reference.PerpDist = *perp
	}
	if *speed > 0 {
		cfg.Reference.Speed = *speed
	}

	if len(tr.Header.Readers) > 0 {
		if err := runDeployment(tr, cfg, *stream, *every, *perp > 0, *speed > 0); err != nil {
			fatal(err)
		}
		return
	}
	if *perp <= 0 && tr.Header.PerpDist > 0 {
		cfg.Reference.PerpDist = tr.Header.PerpDist
	}
	if *speed <= 0 && tr.Header.Speed > 0 {
		cfg.Reference.Speed = tr.Header.Speed
	}

	loc, err := stpp.NewLocalizer(cfg)
	if err != nil {
		fatal(err)
	}
	var res *stpp.Result
	if *stream {
		res, err = streamTrace(loc, tr.Reads, *every)
	} else {
		res, err = loc.LocalizeReads(tr.Reads)
	}
	if err != nil {
		fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "EPC\tREADS\tVZONE\tBOTTOM_S\tFIT_R2\tY_SIGNED\tERROR")
	for _, tag := range res.Tags {
		errStr := ""
		if tag.Err != nil {
			errStr = tag.Err.Error()
		}
		fmt.Fprintf(tw, "%s\t%d\t[%d,%d)\t%.3f\t%.3f\t%+.2f\t%s\n",
			tag.EPC, tag.Profile.Len(), tag.VZone.Start, tag.VZone.End,
			tag.X.BottomTime, tag.X.R2, tag.Y.Signed, errStr)
	}
	tw.Flush()

	fmt.Println("\nX order (movement axis):")
	for i, e := range res.XOrderEPCs() {
		fmt.Printf("  %2d. %s\n", i+1, e)
	}
	fmt.Println("Y order (nearest to trajectory first):")
	for i, e := range res.YOrderEPCs() {
		fmt.Printf("  %2d. %s\n", i+1, e)
	}

	if truth, err := tr.TruthXEPCs(); err == nil && len(truth) == len(res.XOrder) {
		if acc, err := metrics.OrderingAccuracy(res.XOrderEPCs(), truth); err == nil {
			fmt.Printf("\nX ordering accuracy vs ground truth: %.0f%%\n", acc*100)
		}
	}
	if truth, err := tr.TruthYEPCs(); err == nil && len(truth) == len(res.YOrder) {
		if acc, err := metrics.OrderingAccuracy(res.YOrderEPCs(), truth); err == nil {
			fmt.Printf("Y ordering accuracy vs ground truth: %.0f%%\n", acc*100)
		}
	}
}

// forEachWindow replays a recorded read log in `every`-second windows of
// trace time, calling fn for every window that contains reads: win is the
// window's reads, t the window's end on the trace clock (relative to the
// first read), total the cumulative read count, and final whether no
// reads follow. Empty windows (gaps in the trace) are skipped — they
// cannot change a result.
func forEachWindow(reads []reader.TagRead, every float64, fn func(win []reader.TagRead, t float64, total int, final bool) error) error {
	if every <= 0 {
		every = 1
	}
	start := 0
	window := 1
	for start < len(reads) {
		limit := reads[0].Time + float64(window)*every
		end := start
		for end < len(reads) && reads[end].Time < limit {
			end++
		}
		if end > start {
			if err := fn(reads[start:end], limit-reads[0].Time, end, end == len(reads)); err != nil {
				return err
			}
		}
		start = end
		window++
	}
	return nil
}

// streamTrace replays a recorded read log through the streaming engine in
// timestamp order, as if it were arriving live from the reader: reads are
// fed in `every`-second windows, a progress line is printed per snapshot,
// and the final result — identical to the batch path — is returned.
func streamTrace(loc *stpp.Localizer, reads []reader.TagRead, every float64) (*stpp.Result, error) {
	eng := pipeline.NewFromLocalizer(loc, pipeline.Options{})
	err := forEachWindow(reads, every, func(win []reader.TagRead, t float64, total int, final bool) error {
		eng.Consume(win)
		if !final {
			if res, err := eng.Snapshot(); err == nil {
				located := 0
				for _, tag := range res.Tags {
					if tag.Err == nil {
						located++
					}
				}
				fmt.Printf("t=%6.2fs  %4d reads  %3d tags seen  %3d located\n",
					t, total, eng.Tags(), located)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return eng.Snapshot()
}

// runDeployment replays a multi-reader trace through the sharded engine:
// one pipeline shard per reader described in the header, per-zone
// localization, and the stitched global orders (with accuracy when the
// trace carries ground truth). With stream set, reads are fed in
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

// streamDeployment feeds a recorded multi-reader log through the sharded
// engine in `every`-second windows, printing a progress line per window
// with new reads, and returns the final snapshot.
func streamDeployment(se *deploy.ShardedEngine, reads []reader.TagRead, every float64) (*deploy.GlobalResult, error) {
	err := forEachWindow(reads, every, func(win []reader.TagRead, t float64, total int, final bool) error {
		if err := se.Consume(win); err != nil {
			return err
		}
		if !final {
			if res, err := se.Snapshot(); err == nil {
				// Overlap tags are profiled once per shard, so count the
				// stitched distinct tags, not ShardedEngine.Tags().
				fmt.Printf("t=%6.2fs  %4d reads  %3d tags seen  %d shard profiles\n",
					t, total, len(res.XOrder), se.Tags())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return se.Snapshot()
}

// epcList renders EPCs space-separated on one line.
func epcList(epcs []epcgen2.EPC) string {
	return strings.Join(trace.EncodeEPCs(epcs), " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stpp:", err)
	os.Exit(1)
}
