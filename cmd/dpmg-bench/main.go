// Command dpmg-bench regenerates the experiment tables E1–E10 of
// internal/experiment, the empirical analogues of the paper's
// theorem-level claims. Load against a running dpmg-server comes from
// dpmg-gen (-target, with -transport tcp for the streaming listener).
//
// Usage:
//
//	dpmg-bench                   # run every experiment at full size
//	dpmg-bench -experiment E1    # run a single experiment
//	dpmg-bench -quick            # reduced sizes (seconds instead of minutes)
//	dpmg-bench -csv              # emit CSV instead of aligned tables
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dpmg/internal/experiment"
)

func main() {
	var (
		id    = flag.String("experiment", "", "experiment ID (E1..E10); empty runs all")
		quick = flag.Bool("quick", false, "reduced problem sizes")
		csv   = flag.Bool("csv", false, "emit CSV")
		seed  = flag.Uint64("seed", 1, "base random seed")
	)
	flag.Parse()

	cfg := experiment.Config{Quick: *quick, Seed: *seed}
	ids := experiment.IDs()
	if *id != "" {
		ids = strings.Split(strings.ToUpper(*id), ",")
	}
	for _, eid := range ids {
		r, ok := experiment.Lookup(eid)
		if !ok {
			fmt.Fprintf(os.Stderr, "dpmg-bench: unknown experiment %q (have %s)\n",
				eid, strings.Join(experiment.IDs(), ", "))
			os.Exit(2)
		}
		start := time.Now()
		tab := r(cfg)
		if *csv {
			tab.CSV(os.Stdout)
		} else {
			tab.Render(os.Stdout)
			fmt.Printf("  (%s in %v)\n\n", eid, time.Since(start).Round(time.Millisecond))
		}
	}
}
