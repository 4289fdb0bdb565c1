package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dpmg/internal/stream"
)

// rounds is how many independent rounds an untraced run is made of: each
// sets the workload up afresh, measures for its share of the seconds, checks
// the outputs and tears down. Every end-to-end metric is the median over the
// rounds; setup_s is therefore the median of that many set-ups.
const rounds = 5

// floorProbes is how many 1-item round trips each floor probe makes.
const floorProbes = 300

// genLateLimit is the open-loop lateness beyond which a run is flagged
// generator-bound: its latencies then measure the generator, not the server.
const genLateLimit = time.Millisecond

// genShareLimit is the generator's share of generator + server CPU time, in
// percent, beyond which a run is flagged generator-bound.
const genShareLimit = 50

// clientCount is the load shape: min(nproc, 4) generator clients, so the
// generator never asks for more parallelism than the hardware has.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Traced   bool               `json:"traced"`
	Correct  bool               `json:"correct"`
	Attempts int64              `json:"ops_attempted"`
	Failed   int64              `json:"ops_failed"`
	Metrics  map[string]float64 `json:"metrics"`
	// Samples is the sample count behind each latency series' percentiles.
	Samples  map[string]int `json:"samples"`
	Failures []string       `json:"failures,omitempty"`
	Flags    []string       `json:"flags,omitempty"`
	// HostWaitS is how long the run waited for the host's normal speed, and
	// HostSlowdown the highest slowdown a round started at (host.go).
	HostWaitS    float64 `json:"host_wait_s"`
	HostSlowdown float64 `json:"host_slowdown"`
	WallS        float64 `json:"wall_s"`
}

// measured is one window plus what the processes consumed during it.
type measured struct {
	w                    *window
	serverCPU, clientCPU time.Duration
	before, after        map[string]float64
}

// measure drives one window, reading both processes' CPU and the server's
// /metrics totals around it.
func measure(ctx context.Context, inst instance, d time.Duration, traced bool) (*measured, error) {
	srv := inst.server()
	before, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	u0, err := srv.usage()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	recs, elapsed := inst.drive(ctx, d, traced)
	self1 := selfCPU()
	u1, err := srv.usage()
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	return &measured{
		w: mergeRecorders(recs, elapsed), serverCPU: u1.cpu - u0.cpu, clientCPU: self1 - self0,
		before: before, after: after,
	}, nil
}

// delta is how much a /metrics total grew over the window.
func (m *measured) delta(name string) float64 { return m.after[name] - m.before[name] }

// cpuPerOpUS is the server's CPU in microseconds per op that counts as
// throughput. On release-mix that is per frame of the writer: what the
// fixed-rate reads cost the server is in the numerator only.
func (m *measured) cpuPerOpUS() float64 {
	if m.w.counted == 0 {
		return 0
	}
	return float64(m.serverCPU.Microseconds()) / float64(m.w.counted)
}

// probeFloors measures the two datapaths' fixed cost on an idle server: the
// round trip of a 1-item HTTP batch and of a 1-item TCP frame.
func probeFloors(ctx context.Context, srv *server) (httpUS, tcpUS float64, err error) {
	const name = "floor"
	if err := createStream(ctx, srv.api, name); err != nil {
		return 0, 0, err
	}
	one := encodeItems([]stream.Item{1})
	conn, err := dialBound(srv.target.IngestAddr, name)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	var httpNS, tcpNS []int64
	for i := 0; i < floorProbes; i++ {
		t0 := time.Now()
		if err := srv.api.PostBatch(ctx, name, one); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := sendFrame(conn, one); err != nil {
			return 0, 0, err
		}
		httpNS, tcpNS = append(httpNS, t1.Sub(t0).Nanoseconds()), append(tcpNS, time.Since(t1).Nanoseconds())
	}
	return summarize(httpNS).P50, summarize(tcpNS).P50, nil
}

// setUp creates the run's directory for one round and sets the workload up
// in it, returning the instance and how long set-up took.
func setUp(ctx context.Context, bin string, wl workloadDef, seed uint64, round int) (instance, float64, error) {
	e := &env{
		bin: bin, clients: clientCount(), seed: subSeed(seed, fmt.Sprintf("round-%d", round)),
		dir: filepath.Join(buildDir, fmt.Sprintf("run-%d-%d", os.Getpid(), round)),
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	inst, err := wl.setup(ctx, e)
	if err != nil {
		os.RemoveAll(e.dir) //nolint:errcheck // best-effort cleanup on a failed set-up
		return nil, 0, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	return inst, time.Since(t0).Seconds(), nil
}

// account folds one window's attempts and its checks into the result.
func (r *runResult) account(wl workloadDef, inst instance, cr *checkResult, ws ...*window) {
	var firstErr, replayErr error
	failedBefore := r.Failed
	for _, w := range ws {
		r.Attempts, r.Failed = r.Attempts+w.attempted, r.Failed+w.failed
		if firstErr == nil {
			firstErr = w.firstErr
		}
		if replayErr == nil {
			replayErr = w.replayErr
		}
	}
	failures := cr.failures
	if r.Failed > failedBefore {
		failures = append(failures, fmt.Sprintf("%d ops failed; first: %v", r.Failed-failedBefore, firstErr))
	}
	if replayErr != nil {
		failures = append(failures, fmt.Sprintf("layer replay failed: %v", replayErr))
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "--- %s server log ---\n%s\n", wl.name, inst.server().log)
	}
	r.Failures = append(r.Failures, failures...)
}

// runOnce makes one run of one workload: untraced it reports the
// end-to-end metrics, traced the per-layer metrics.
func runOnce(ctx context.Context, bin string, wl workloadDef, seed uint64, seconds int, traced bool, traceOut string) (*runResult, error) {
	start := time.Now()
	res := &runResult{Workload: wl.name, Seed: seed, Traced: traced, Metrics: make(map[string]float64), Samples: make(map[string]int)}
	gate := newHostGate()
	var err error
	if traced {
		err = runTraced(ctx, bin, wl, res, gate, time.Duration(seconds)*time.Second, traceOut)
	} else {
		err = runUntraced(ctx, bin, wl, res, gate, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		return nil, err
	}
	gate.report(res)
	if res.Attempts == 0 {
		res.Failures = append(res.Failures, "no op was attempted")
	}
	res.Correct = len(res.Failures) == 0
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// runUntraced splits the run's seconds over `rounds` rounds, each with its
// own freshly set-up server, and reports every end-to-end metric as the
// median over the rounds. One server process can be several percent faster
// or slower than the next for its whole life (where its tables landed in
// memory, what else the machine was doing), and a disturbance that lasts
// seconds spoils a whole short run; the median over independent rounds
// shrugs off both, where one long window would not. What lasts minutes —
// a neighbour on the host's processor — no statistic inside a run can see
// past, so each round first waits for the host's normal speed (host.go).
func runUntraced(ctx context.Context, bin string, wl workloadDef, res *runResult, gate *hostGate, total time.Duration) error {
	per := make(map[string][]float64)
	for round := 0; round < rounds; round++ {
		gate.await(ctx)
		inst, setupS, err := setUp(ctx, bin, wl, res.Seed, round)
		if err != nil {
			return err
		}
		m, err := measure(ctx, inst, total/rounds, false)
		if err != nil {
			inst.close()
			return err
		}
		res.account(wl, inst, inst.check(ctx), m.w)
		inst.close()

		per["ops_per_s"] = append(per["ops_per_s"], m.w.opsPerSecond())
		per["server_cpu_us_per_op"] = append(per["server_cpu_us_per_op"], m.cpuPerOpUS())
		per["setup_s"] = append(per["setup_s"], setupS)
		for name, ns := range m.w.series {
			d := summarize(ns)
			if name == opSeries {
				per["op_p50_us"] = append(per["op_p50_us"], d.P50)
			}
			// The count behind a percentile is one round's; report the
			// smallest, which is the one that limits what may be stated.
			if n, ok := res.Samples[name]; !ok || d.N < n {
				res.Samples[name] = d.N
			}
		}
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = median(per[d.Name])
	}
	return nil
}

// runTraced makes the traced run on one server: floor probes on the idle
// server, an untraced reference window of a quarter of the seconds, then
// the traced window.
func runTraced(ctx context.Context, bin string, wl workloadDef, res *runResult, gate *hostGate, total time.Duration, traceOut string) error {
	res.Metrics["host.slowdown"] = gate.await(ctx)
	inst, _, err := setUp(ctx, bin, wl, res.Seed, 0)
	if err != nil {
		return err
	}
	defer inst.close()
	httpFloor, tcpFloor, err := probeFloors(ctx, inst.server())
	if err != nil {
		return fmt.Errorf("%s: floor probes: %w", wl.name, err)
	}
	res.Metrics["server.http_floor_us"], res.Metrics["framing.tcp_floor_us"] = httpFloor, tcpFloor
	ref, err := measure(ctx, inst, total/4, false)
	if err != nil {
		return err
	}
	if err := inst.prepareTrace(); err != nil {
		return fmt.Errorf("%s: twins: %w", wl.name, err)
	}
	m, err := measure(ctx, inst, total-total/4, true)
	if err != nil {
		return err
	}
	usage, err := inst.server().usage()
	if err != nil {
		return err
	}
	cr := inst.check(ctx)
	res.account(wl, inst, cr, ref.w, m.w)
	dists := make(map[string]dist)
	for name, ns := range m.w.series {
		dists[name] = summarize(ns)
		res.Samples[name] = dists[name].N
	}
	layerMetrics(res, wl, inst, m, ref, dists, cr, usage)
	if traceOut != "" {
		return writeSpans(traceOut, m.w.spans)
	}
	return nil
}

// layerMetrics fills in every per-layer metric of a traced run.
func layerMetrics(res *runResult, wl workloadDef, inst instance, m, ref *measured, dists map[string]dist, cr *checkResult, usage procUsage) {
	out := res.Metrics
	for _, d := range perLayer {
		if _, ok := out[d.Name]; !ok {
			out[d.Name] = 0
		}
	}
	op := dists[opSeries]
	out["client.op_p99_us"], out["client.op_tail_us"], out["client.op_tail_pct"] = op.P99, op.Tail, op.TailPct
	out["client.op_samples"], out["client.ops_failed"] = float64(op.N), float64(res.Failed)
	for _, s := range []string{"estimate", "mix_ingest", "evict", "faultin"} {
		out["client."+s+"_p50_us"], out["client."+s+"_p99_us"] = dists[s].P50, dists[s].P99
	}
	out["client.stats_p50_us"], out["client.scrape_p50_us"] = dists["stats"].P50, dists["scrape"].P50
	if len(m.w.late) > 0 {
		sort.Slice(m.w.late, func(i, j int) bool { return m.w.late[i] < m.w.late[j] })
		late := time.Duration(percentile(m.w.late, 9900))
		out["client.gen_late_p99_us"] = float64(late.Nanoseconds()) / 1e3
		if late > genLateLimit {
			res.Flags = append(res.Flags, fmt.Sprintf("generator-bound: p99 send lateness %s exceeds %s", late, genLateLimit))
		}
	}
	// The generator's share is read off the untraced reference window: in the
	// traced window the replays are the generator's own work. A closed loop
	// whose generator burns more CPU than the server it loads cannot show a
	// server-side change in its rate or latency at full size.
	if total := ref.clientCPU + ref.serverCPU; total > 0 {
		share := 100 * float64(ref.clientCPU) / float64(total)
		out["client.cpu_share"] = share
		if share > genShareLimit {
			res.Flags = append(res.Flags, fmt.Sprintf("generator-bound: the generator used %.0f%% of the CPU time (limit %d%%); read server_cpu_us_per_op for this workload, ops_per_s and op_p50_us mostly measure the loopback round trip", share, genShareLimit))
		}
	}
	// What tracing costs: throughput lost against the reference window.
	if refRate := ref.w.opsPerSecond(); refRate > 0 {
		out["client.trace_overhead_pct"] = 100 * (refRate - m.w.opsPerSecond()) / refRate
	}

	out["server.rss_peak_mb"], out["server.cpu_us_per_op"] = usage.rssPeakMB, m.cpuPerOpUS()
	out["server.items_ingested"] = m.delta("dpmg_stream_items_ingested_total")
	out["server.batches"] = m.delta("dpmg_stream_batches_ingested_total")
	out["server.refusals"] = m.delta("dpmg_ingest_refusals_total") + m.delta("dpmg_stream_throttled_total")
	out["server.releases"] = m.delta("dpmg_stream_releases_total")
	out["server.evictions"] = m.delta("dpmg_stream_evictions_total")
	out["server.fault_ins"] = m.delta("dpmg_stream_fault_ins_total")
	out["cluster.folded"], out["cluster.deduped"] = m.delta("dpmg_cluster_folded_total"), m.delta("dpmg_cluster_deduped_total")

	for _, sm := range spanMetrics {
		out[sm.metric] = medianPerUnit(m.w.spans, sm.span) / sm.div
	}
	if out["sharded.update_batch_ns_per_item"] > 0 && out["mg.update_ns_per_item"] > 0 {
		out["sharded.route_ns_per_item"] = out["sharded.update_batch_ns_per_item"] - out["mg.update_ns_per_item"]
	}
	// The differences below set a client-observed median against the
	// in-process cost of the same work; what is left is the layer around it.
	// The median is the untraced reference window's: in the traced window the
	// replays compete with the server for the CPUs.
	refP50 := summarize(ref.w.series[opSeries]).P50
	switch wl.name {
	case "zipf-tcp", "hot-http":
		out["server.protocol_us_per_batch"] = refP50 - medianDurUS(m.w.spans, "manager.update_batch")
	case "release-mix":
		out["server.release_overhead_us"] = refP50 - out["release.detailed_us"]
	case "fanin-fold":
		out["cluster.fold_overhead_us"] = refP50 - out["cluster.decode_us"] - out["manager.fold_summary_us"]
	}
	out["mg.err_over_envelope"] = cr.errOverEnvelope
	for name, v := range inst.layerCounts() {
		out[name] = v
	}
}

// defsFor returns the metric table a run of this kind reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printRun prints a run's metrics by name with their units, then its
// sample counts, flags and failed checks.
func printRun(w io.Writer, r *runResult) {
	kind := "end-to-end (untraced window)"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n%s  seed=%d  %s  ops_attempted=%d ops_failed=%d  correct=%v  wall=%.1fs\n", r.Workload, r.Seed, kind, r.Attempts, r.Failed, r.Correct, r.WallS)
	if wl, ok := findWorkload(r.Workload); ok {
		fmt.Fprintf(w, "  primary op: %s\n", wl.op)
	}
	for _, d := range defsFor(r.Traced) {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	names := make([]string, 0, len(r.Samples))
	for name := range r.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := r.Samples[name]
		tail := "none"
		if c, ok := highestTail(n); ok {
			tail = fmt.Sprintf("p%g", float64(c)/100)
		}
		fmt.Fprintf(w, "  samples[%s]=%d (highest percentile with >=10 samples beyond it: %s)\n", name, n, tail)
	}
	fmt.Fprintf(w, "  host: waited %.0fs for the host's normal speed; slowest start of a round %.2f times the speed probe's record\n", r.HostWaitS, r.HostSlowdown)
	for _, f := range r.Flags {
		fmt.Fprintf(w, "  FLAG  %s\n", f)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL  %s\n", f)
	}
}
