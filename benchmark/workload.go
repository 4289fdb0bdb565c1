package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"dpmg/internal/framing"
	"dpmg/internal/scenario"
)

// env is what one run hands every set-up: the server binary, the load
// shape, and a directory of its own for state, spools and stores.
type env struct {
	bin     string
	clients int
	seed    uint64
	dir     string
}

// workloadDef names one workload and how to set it up.
type workloadDef struct {
	name string
	// why is the one line BENCHMARK.json and the README carry.
	why string
	// op says what one primary op is: ops_per_s counts it, op_p50_us times it.
	op    string
	setup func(ctx context.Context, e *env) (instance, error)
}

// workloads is the benchmark's workload table, in reporting order.
var workloads = []workloadDef{
	{
		name:  "zipf-tcp",
		why:   "closed loop of 4096-item Zipf(1.05) frames over framing TCP: d>>k keeps Algorithm 1 on its miss path, so mg is most of the server's time and protocol cost is not",
		op:    "one 4096-item frame, send to ack",
		setup: func(ctx context.Context, e *env) (instance, error) { return setupIngest(ctx, e, false) },
	},
	{
		name:  "hot-http",
		why:   "closed loop of 512-item HTTP batches over 64 keys (< k): every update is a counter hit, so HTTP, item decode and allocation do the work and mg is bypassed",
		op:    "one 512-item POST /v1/streams/{s}/batch, request to response",
		setup: func(ctx context.Context, e *env) (instance, error) { return setupIngest(ctx, e, true) },
	},
	{
		name:  "release-mix",
		why:   "open loop of releases, point estimates, stats and scrapes at fixed rates beside one closed-loop TCP writer on 8 preloaded streams: summarize, merge, calibrate, noise and render under write pressure",
		op:    "one private release (eps=1, delta=2^-23), due time to decoded document; ops_per_s and server_cpu_us_per_op count the closed-loop writer's 4096-item frames, not the fixed-rate reads",
		setup: setupMix,
	},
	{
		name:  "fanin-fold",
		why:   "closed loop of synthetic edges shipping pre-encoded k=256 summaries to one root over 64 streams with 5% re-ships: decode, lane, dedup, fold and publish do the work",
		op:    "one summary ship, send to ack, four edges per client with one ship in flight each",
		setup: setupFold,
	},
	{
		name:  "cold-churn",
		why:   "closed loop of admin evict then a 512-item frame that faults the tenant back in, over 64 preloaded tenants: record encode, fsync+rename, load and RestoreColumns dominate",
		op:    "one evict + fault-in cycle",
		setup: setupChurn,
	},
}

// instance is one set-up workload: a live server with its streams created,
// its payloads generated, its state preloaded and its caches warm.
type instance interface {
	// server is the process the workload loads.
	server() *server
	// prepareTrace builds the twins a traced window replays through; it is
	// called once, before the first traced window.
	prepareTrace() error
	// drive offers the workload's load for d and returns what each
	// generator goroutine recorded and how long the window really was.
	drive(ctx context.Context, d time.Duration, traced bool) ([]*recorder, time.Duration)
	// check verifies the server's outputs against the paper's bounds over
	// everything acked since set-up.
	check(ctx context.Context) *checkResult
	// layerCounts reports counts the traced run reads off the twins.
	layerCounts() map[string]float64
	// close stops the server and removes the run's files.
	close()
}

// checkResult is the outcome of a workload's correctness gate.
type checkResult struct {
	failures []string
	// errOverEnvelope is the largest (truth − estimate)/(N/(k+1)) seen over
	// the checked items: Lemma 8 puts it in [0, 1].
	errOverEnvelope float64
}

// failf records one failed check.
func (c *checkResult) failf(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// base is what every workload instance holds.
type base struct {
	env *env
	srv *server
	ctx context.Context
}

func (b *base) server() *server { return b.srv }

// close stops the server (after which its log is only useful on failure)
// and removes everything the run wrote.
func (b *base) close() {
	b.srv.stop()
	os.RemoveAll(b.env.dir) //nolint:errcheck // best-effort cleanup of scratch files
}

// createStream creates one benchmark stream on the server.
func createStream(ctx context.Context, api *scenario.Client, name string) error {
	return api.CreateStream(ctx, name, scenario.StreamSpec{
		K: sketchK, Universe: universe, Shards: shards,
		Eps: releaseBudget.Eps, Delta: releaseBudget.Delta,
		MaxIngestRate: -1, IngestBurst: -1, MaxInflightReleases: -1,
	})
}

// dialBound opens a framing connection bound to one stream.
func dialBound(addr, name string) (*framing.Client, error) {
	c, err := framing.DialTimeout(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if err := c.Bind(name); err != nil {
		c.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("bind %s: %w", name, err)
	}
	return c, nil
}

// sendFrame ships one pre-encoded data frame and requires AckOK.
func sendFrame(c *framing.Client, payload []byte) error {
	ack, err := c.Exchange(framing.TypeData, payload)
	if err != nil {
		return err
	}
	if ack.Code != framing.AckOK {
		return &framing.AckError{Ack: ack}
	}
	return nil
}

// checkEnvelope fetches the server's estimate for each of the top true
// items and checks Lemma 8: truth − N/(k+1) ≤ estimate ≤ truth. It returns
// the estimates, index for index (-1 where the fetch failed).
func checkEnvelope(ctx context.Context, cr *checkResult, api *scenario.Client, name string, top []itemCount, n int64) []int64 {
	envelope := float64(n) / float64(sketchK+1)
	ests := make([]int64, len(top))
	for i, ic := range top {
		est, err := api.Estimate(ctx, name, ic.item)
		if err != nil {
			cr.failf("%s: estimate(%d): %v", name, ic.item, err)
			ests[i] = -1
			continue
		}
		ests[i] = est
		under := float64(ic.count - est)
		if est > ic.count || under > envelope {
			cr.failf("%s: item %d: estimate %d outside [%d − %.1f, %d] (Lemma 8, N=%d)", name, ic.item, est, ic.count, envelope, ic.count, n)
		}
		if envelope > 0 && under/envelope > cr.errOverEnvelope {
			cr.errOverEnvelope = under / envelope
		}
	}
	return ests
}

// checkConserved requires the server's item count for a stream to equal the
// acked items, and returns the stats document.
func checkConserved(ctx context.Context, cr *checkResult, api *scenario.Client, name string, acked int64) *scenario.StatsDoc {
	// Stats folds the live shards when the published view is behind, so
	// the estimates read after it are exact, not bounded-stale.
	st, err := api.Stats(ctx, name)
	if err != nil {
		cr.failf("%s: stats: %v", name, err)
		return nil
	}
	if st.Items != acked {
		cr.failf("%s: server holds %d items, %d were acked (items not conserved)", name, st.Items, acked)
	}
	return st
}

// sum adds up xs.
func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// topCheck is how many of the most frequent true items every envelope
// check covers.
const topCheck = 32
