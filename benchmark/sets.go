package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// runsPerSet is how many runs of a workload make one set, each with another
// seed: the ten the acceptance driver takes its quartiles over.
const runsPerSet = 10

// setStat is one metric of one workload over the runs of one set.
type setStat struct {
	median, q1, q3, spread float64
}

// statOf summarises one metric's values over a set's runs.
func statOf(values []float64) setStat {
	q1, q3 := quartiles(values)
	return setStat{median: median(values), q1: q1, q3: q3, spread: spread(values)}
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict compares one metric between two sets of the same code. A metric
// whose run-to-run spread exceeds its bound cannot resolve a difference of
// the bound's size, so it is reported as unresolved, never as unchanged.
func verdict(d metricDef, a, b setStat) string {
	if max(a.spread, b.spread) > d.Bound {
		return "unresolved"
	}
	if max(worseBy(d, a.median, b.median), worseBy(d, b.median, a.median)) > d.Bound {
		return "DIFFER"
	}
	return "agree"
}

// severity orders the verdicts from best to worst.
var severity = map[string]int{"agree": 0, "unresolved": 1, "DIFFER": 2}

// runSets is the agreement mode: it makes `sets` sets of runsPerSet untraced
// runs per workload, each run with another seed, prints every metric's
// median, quartiles and spread per set, and compares every pair of sets
// against the metric's bound. It returns the exit code: non-zero when a run
// was incorrect, when two sets differ by more than a bound, or when a
// metric is unresolved.
func runSets(ctx context.Context, bin string, selected []workloadDef, seed uint64, seconds, sets int, start time.Time) int {
	// stats[workload][metric][set]
	stats := make(map[string]map[string][]setStat)
	code := 0
	for s := 0; s < sets; s++ {
		for _, wl := range selected {
			values := make(map[string][]float64)
			for r := 0; r < runsPerSet; r++ {
				res, err := runOnce(ctx, bin, wl, seed+uint64(s*runsPerSet+r), seconds, false, "")
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "%s seed %d: incorrect: %v\n", wl.name, res.Seed, res.Failures)
					code = 1
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d:", s+1, wl.name, res.Seed)
				for _, d := range endToEnd {
					values[d.Name] = append(values[d.Name], res.Metrics[d.Name])
					fmt.Fprintf(os.Stderr, " %s=%.4g", d.Name, res.Metrics[d.Name])
				}
				fmt.Fprintf(os.Stderr, " host_wait_s=%.0f host_slowdown=%.2f\n", res.HostWaitS, res.HostSlowdown)
			}
			if stats[wl.name] == nil {
				stats[wl.name] = make(map[string][]setStat)
			}
			for _, d := range endToEnd {
				stats[wl.name][d.Name] = append(stats[wl.name][d.Name], statOf(values[d.Name]))
			}
		}
	}
	fmt.Printf("\n%-12s %-22s %-4s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, wl := range selected {
		for _, d := range endToEnd {
			ss := stats[wl.name][d.Name]
			// The worst verdict over all pairs of sets stands; a single set
			// is compared with itself, which leaves only the spread rule.
			v := verdict(d, ss[0], ss[0])
			for i := range ss {
				for j := i + 1; j < len(ss); j++ {
					if pair := verdict(d, ss[i], ss[j]); severity[pair] > severity[v] {
						v = pair
					}
				}
			}
			if v == "DIFFER" || v == "unresolved" {
				code = 1
			}
			for i, st := range ss {
				fmt.Printf("%-12s %-22s %-4d %14.4f %14.4f %14.4f %7.2f%% %5.0f%%  %s\n", wl.name, d.Name+" ("+d.Unit+")", i+1, st.median, st.q1, st.q3, 100*st.spread, 100*d.Bound, v)
			}
		}
	}
	fmt.Printf("\ntotal wall time %.1fs\n", time.Since(start).Seconds())
	return code
}
