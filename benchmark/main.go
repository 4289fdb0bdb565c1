// Command benchmark is the repository's benchmark: it launches real
// cmd/dpmg-server processes on loopback, drives them from one generator
// process through five workloads that each load a different layer, checks
// every output against the paper's bounds, and reports named end-to-end
// metrics (untraced window) and per-layer metrics (traced run).
//
//	go run ./benchmark                                   every workload, both kinds of run
//	go run ./benchmark -workload zipf-tcp -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -sets 2                           two sets of runs, compared against the bounds
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// lineOf renders a run as the result line: exactly the metrics of its kind.
func lineOf(r *runResult) resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempts, Failed: r.Failed, Metrics: make(map[string]metricValue)}
	for _, d := range defsFor(r.Traced) {
		l.Metrics[d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return l
}

// header describes the machine and the run, so no number is read without
// the hardware it was measured on.
type header struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// readHeader collects the header. The checkout the acceptance driver runs
// in is not a git repository, so the commit may be unknown.
func readHeader(seed uint64, seconds int) header {
	h := header{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Clients: clientCount(),
		GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(b))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(".git/" + name); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		h.Commit = ref
	}
	return h
}

func (h header) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d clients=%d go=%s kernel=%s commit=%s seed=%d seconds=%d",
		h.NProc, h.GoMaxProcs, h.Clients, h.GoVersion, h.Kernel, h.Commit, h.Seed, h.Seconds)
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workloadDef, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workloadDef{}, false
}

// report is what -out receives: the header, every run, and the wall time.
type report struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
	WallS  float64      `json:"total_wall_s"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the result line (default: every workload, untraced and traced)")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", runSeconds, "measured seconds per run")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 makes the traced run and reports the per-layer metrics")
		sets         = flag.Int("sets", 0, "agreement mode: make this many sets of ten runs per workload, each run with another seed, and compare them against the bounds")
		out          = flag.String("out", "", "also write the full report as JSON to this file")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans as JSON to this file")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(realMain(*workloadName, *seed, *seconds, *trace == 1, *sets, *out, *traceOut))
}

// realMain is main behind its exit code, so deferred teardown runs.
func realMain(workloadName string, seed uint64, seconds int, traced bool, sets int, out, traceOut string) int {
	start := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// Every HTTP client of the run shares the default transport; keep one
	// idle connection per generator goroutine so none is re-dialled mid-run.
	http.DefaultTransport.(*http.Transport).MaxIdleConnsPerHost = 64

	selected := workloads
	if workloadName != "" {
		wl, ok := findWorkload(workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", workloadName)
			return 2
		}
		selected = []workloadDef{wl}
	}
	bin, err := buildServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	h := readHeader(seed, seconds)
	fmt.Println(h)

	if sets > 0 {
		return runSets(ctx, bin, selected, seed, seconds, sets, start)
	}

	if workloadName != "" {
		// A single run must end well inside the driver's 180 s limit even if
		// a server hangs: end the servers, say so, and fail.
		watchdog := time.AfterFunc(170*time.Second, func() {
			fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170s; killing servers")
			killLive()
			os.Exit(3)
		})
		defer watchdog.Stop()
	}
	rep := report{Header: h}
	kinds := []bool{false, true}
	if workloadName != "" {
		kinds = []bool{traced}
	}
	ok := true
	for _, wl := range selected {
		for _, tr := range kinds {
			r, err := runOnce(ctx, bin, wl, seed, seconds, tr, traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			printRun(os.Stdout, r)
			rep.Runs = append(rep.Runs, r)
			ok = ok && r.Correct
		}
	}
	rep.WallS = time.Since(start).Seconds()
	fmt.Printf("\ntotal wall time %.1fs\n", rep.WallS)
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	// The result line comes last. For one workload it is the contract's
	// object; for the full run, one such object per run.
	var line any
	if workloadName != "" {
		line = lineOf(rep.Runs[0])
	} else {
		all := make(map[string]resultLine)
		for _, r := range rep.Runs {
			key := r.Workload
			if r.Traced {
				key += "/traced"
			}
			all[key] = lineOf(r)
		}
		line = all
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	if !ok {
		return 1
	}
	return 0
}
