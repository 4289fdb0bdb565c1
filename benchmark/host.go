package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on small shared guests. On the seed machine a neighbour
// of the host at times shares the processor core the guest's vCPUs run on,
// for minutes on end: every workload then runs 30–50 % slower, server CPU per
// op included, and nothing measured in such a stretch says anything about the
// code. The guest is not told (/proc/stat reports no steal), but a fixed
// piece of arithmetic that keeps the core's execution units busy shows it:
// it took 18 ms in every quiet probe of an evening and 28 ms in most probes
// of a slow stretch, while a single dependent multiply chain never slowed.
// So before each round the benchmark times that arithmetic, compares it with
// the fastest it has ever run in this checkout, and holds the round back
// while the host is slow. That catches the gross stretches only; the seed
// machine's speed also wanders by a tenth either way, which the bounds have
// to absorb. The probe runs on one thread only: two busy vCPUs of an
// otherwise idle guest may share one host processor for a while, which would
// read as a slow host.
const (
	// probeChunks chunks of chunkIters iterations are the work of one probe:
	// about 100 ms on the seed machine. The probe reads the median chunk, so
	// the generator's own stray work (a collection, a timer) in a chunk or
	// two does not read as a slow host.
	probeChunks = 5
	chunkIters  = 20_000_000
	// slowLimit is the ratio of a probe to the fastest probe on record above
	// which the host counts as slow. On the seed machine quiet probes read
	// 15.3–19.7 ms, 1.29 times the fastest at most, and probes of a mild slow
	// stretch (workloads 10–20 % slower, for half an hour: too long to wait
	// out) up to 1.4; in a gross one four chunks in five read 28 ms or more.
	slowLimit = 1.4
	// hostWaitBudget is how long one run may wait for the host in all. A run
	// that has used it up measures anyway and says so: it must end within
	// the driver's limit whatever the host does.
	hostWaitBudget = 90 * time.Second
	// hostRetry is the pause between two probes of a slow host.
	hostRetry = time.Second
)

// speedFile keeps the fastest probe on record, in nanoseconds, so a run that
// starts inside a slow stretch still knows what this machine can do.
var speedFile = filepath.Join(buildDir, "host_speed")

// probeSink keeps the probe's arithmetic from being optimised away.
var probeSink uint64

// speedProbe times the probe's arithmetic — four independent chains, enough
// to keep a core's integer units busy — and returns the median chunk.
func speedProbe() time.Duration {
	var chunks [probeChunks]float64
	for k := range chunks {
		t0 := time.Now()
		a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
		for i := 0; i < chunkIters; i++ {
			a = a*3 + 1
			b = b*5 + 7
			c = (c ^ a) + 11
			d = (d + b) ^ 13
		}
		probeSink += a + b + c + d
		chunks[k] = float64(time.Since(t0))
	}
	return time.Duration(median(chunks[:]))
}

// hostGate holds the rounds of one run back while the host is slow.
type hostGate struct {
	probe func() time.Duration
	sleep func(time.Duration)
	// record is the fastest probe known, 0 before the first; save stores a
	// new one.
	record time.Duration
	save   func(time.Duration)
	// budget is what is left of the run's allowance for waiting.
	budget time.Duration

	// waited is how long the run has waited so far; worst is the highest
	// slowdown a round was started at.
	waited time.Duration
	worst  float64
}

// newHostGate returns the gate of one run, on the real clock and the
// checkout's record.
func newHostGate() *hostGate {
	g := &hostGate{probe: speedProbe, sleep: time.Sleep, budget: hostWaitBudget}
	if b, err := os.ReadFile(speedFile); err == nil {
		if ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64); err == nil && ns > 0 {
			g.record = time.Duration(ns)
		}
	}
	g.save = func(d time.Duration) {
		// Best effort: without the file each run finds the record anew.
		os.WriteFile(speedFile, []byte(strconv.FormatInt(d.Nanoseconds(), 10)+"\n"), 0o644) //nolint:errcheck // see above
	}
	return g
}

// read makes one probe, keeps the record, and returns the slowdown: this
// probe ÷ the fastest on record.
func (g *hostGate) read() float64 {
	took := g.probe()
	if g.record == 0 || took < g.record {
		g.record = took
		g.save(took)
	}
	return float64(took) / float64(g.record)
}

// await returns once the host reads at its normal speed, or when the run's
// waiting budget is spent or ctx has ended; it returns the slowdown the round
// starts at. A neighbour that comes and goes leaves about one probe in
// twenty of a slow stretch untouched, so normal speed takes two probes in a
// row.
func (g *hostGate) await(ctx context.Context) float64 {
	for {
		slow := g.read()
		if slow <= slowLimit {
			slow = max(slow, g.read())
		}
		if slow <= slowLimit || g.budget < hostRetry || ctx.Err() != nil {
			g.worst = max(g.worst, slow)
			return slow
		}
		g.sleep(hostRetry)
		g.budget -= hostRetry
		g.waited += hostRetry
	}
}

// report records on the run what the gate saw and did.
func (g *hostGate) report(res *runResult) {
	res.HostWaitS, res.HostSlowdown = g.waited.Seconds(), g.worst
	if g.worst > slowLimit {
		res.Flags = append(res.Flags, fmt.Sprintf(
			"host-slow: a round started with the host's speed probe %.2f times its record (limit %.2f) after %.0fs of waiting; this run's times are the host's, not the code's",
			g.worst, slowLimit, g.waited.Seconds()))
	}
}
