// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run fig13            # one artifact
//	experiments -run all              # everything
//	experiments -run tab1 -reps 25    # control repetitions
//	experiments -quick                # smoke mode (small workloads)
//	experiments -csv                  # CSV instead of aligned text
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
)

func main() {
	var (
		run   = flag.String("run", "all", "experiment id or 'all'")
		reps  = flag.Int("reps", 12, "repetitions for statistical experiments")
		seed  = flag.Int64("seed", 1, "base seed")
		quick = flag.Bool("quick", false, "shrink workloads for a smoke run")
		csv   = flag.Bool("csv", false, "emit CSV instead of text tables")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiment.IDs() {
			fmt.Println(id)
		}
		return
	}

	r := experiment.Runner{Seed: *seed, Reps: *reps, Quick: *quick}
	ids := []string{*run}
	if *run == "all" {
		ids = experiment.IDs()
	}
	failed := false
	for _, id := range ids {
		tab, err := experiment.Run(id, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			failed = true
			continue
		}
		if *csv {
			if err := tab.CSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "render %s: %v\n", id, err)
				failed = true
			}
		} else {
			if err := tab.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "render %s: %v\n", id, err)
				failed = true
			}
			fmt.Println()
		}
	}
	if failed {
		os.Exit(1)
	}
}
