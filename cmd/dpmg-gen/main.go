// Command dpmg-gen generates synthetic traces with the workload models
// the experiments run on (internal/workload's package doc says why
// synthetic traces substitute for the paper's motivating proprietary
// streams), and either
// writes them as text (one item per line, for cmd/dpmg or any
// line-oriented ingest) or drives them straight into a running
// dpmg-server over the multi-tenant API — the same driver library
// (internal/scenario) the scenario harness uses, so the standalone
// generator and the harness exercise one code path.
//
// Usage:
//
//	dpmg-gen -model zipf -n 1000000 -d 100000 -s 1.1 > trace.txt
//	dpmg-gen -model packets -n 1000000 -d 200000 -elephants 12 | dpmg -k 256
//	dpmg-gen -model queries -n 500000 -d 50000
//
//	# Drive a server: create the stream, then push batches over HTTP.
//	dpmg-gen -target http://127.0.0.1:8080 -stream load -create \
//	         -model zipf -n 1000000 -d 100000
//
//	# Mixed transport: alternate HTTP batches and framing TCP frames.
//	dpmg-gen -target http://127.0.0.1:8080 -ingest 127.0.0.1:9090 \
//	         -stream load -create -transport mixed -model packets
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dpmg/internal/scenario"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func main() {
	var (
		model     = flag.String("model", "zipf", "zipf | uniform | packets | queries | adversarial")
		n         = flag.Int("n", 1_000_000, "number of elements")
		d         = flag.Int("d", 100_000, "universe size")
		s         = flag.Float64("s", 1.1, "zipf exponent (zipf/queries)")
		elephants = flag.Int("elephants", 12, "elephant flows (packets)")
		k         = flag.Int("k", 256, "summary size (adversarial: emits k+1 items; -create: stream k)")
		seed      = flag.Uint64("seed", 1, "random seed")

		target    = flag.String("target", "", "dpmg-server base URL; empty writes the trace to stdout")
		ingest    = flag.String("ingest", "", "dpmg-server -ingest-addr for the framing TCP datapath (transport tcp|mixed)")
		name      = flag.String("stream", "gen", "target stream name")
		create    = flag.Bool("create", false, "create the target stream first (k from -k, universe from -d, budget from -eps/-delta)")
		eps       = flag.Float64("eps", 4, "stream ε budget for -create")
		delta     = flag.Float64("delta", 1e-5, "stream δ budget for -create")
		shards    = flag.Int("shards", 0, "stream shards for -create (0 = server default)")
		batch     = flag.Int("batch", 1024, "items per batch when driving a server")
		transport = flag.String("transport", "http", "server datapath: http | tcp | mixed")
	)
	flag.Parse()

	if *target == "" {
		w := bufio.NewWriterSize(os.Stdout, 1<<20)
		defer w.Flush()
		if err := generate(w, *model, *n, *d, *s, *elephants, *k, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "dpmg-gen:", err)
			os.Exit(1)
		}
		return
	}
	pushed, err := push(context.Background(), pushConfig{
		Target:    scenario.Target{BaseURL: *target, IngestAddr: *ingest},
		Stream:    *name,
		Create:    *create,
		K:         *k,
		Universe:  uint64(*d),
		Shards:    *shards,
		Eps:       *eps,
		Delta:     *delta,
		Batch:     *batch,
		Transport: scenario.Transport(*transport),
		Model:     *model, N: *n, D: *d, S: *s, Elephants: *elephants, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpmg-gen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dpmg-gen: pushed %d items to %s stream %q\n", pushed, *target, *name)
}

// genItems produces the item sequence for one model — the shared core of
// the text and server modes. The dictionary is non-nil only for the
// queries model (text mode renders names; server mode ships raw items).
func genItems(model string, n, d int, s float64, elephants, k int, seed uint64) (stream.Stream, *stream.Dictionary, error) {
	if n <= 0 || d <= 0 {
		return nil, nil, fmt.Errorf("n and d must be positive")
	}
	switch model {
	case "zipf":
		return workload.Zipf(n, d, s, seed), nil, nil
	case "uniform":
		return workload.Uniform(n, d, seed), nil, nil
	case "packets":
		return workload.NewPacketTrace(d, elephants, 0.4, seed).Stream(n), nil, nil
	case "queries":
		items, dict := workload.QueryLog(n, d, s, seed)
		return items, dict, nil
	case "adversarial":
		return workload.Adversarial(n, k), nil, nil
	}
	return nil, nil, fmt.Errorf("unknown model %q", model)
}

func generate(w io.Writer, model string, n, d int, s float64, elephants, k int, seed uint64) error {
	items, dict, err := genItems(model, n, d, s, elephants, k, seed)
	if err != nil {
		return err
	}
	for _, x := range items {
		if dict != nil {
			if _, err := fmt.Fprintln(w, dict.Name(x)); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "item-%d\n", x); err != nil {
			return err
		}
	}
	return nil
}

// pushConfig parameterizes one server-driving run.
type pushConfig struct {
	Target    scenario.Target
	Stream    string
	Create    bool
	K         int
	Universe  uint64
	Shards    int
	Eps       float64
	Delta     float64
	Batch     int
	Transport scenario.Transport

	Model     string
	N, D      int
	S         float64
	Elephants int
	Seed      uint64
}

// push generates the trace and drives it into the server through the
// scenario driver: sequential batches, QoS refusals retried with backoff
// (all-or-nothing refusals keep the accepted sequence exact).
func push(ctx context.Context, cfg pushConfig) (int64, error) {
	switch cfg.Transport {
	case scenario.TransportHTTP:
	case scenario.TransportTCP, scenario.TransportMixed:
		if cfg.Target.IngestAddr == "" {
			return 0, fmt.Errorf("transport %q needs -ingest (the server's -ingest-addr)", cfg.Transport)
		}
	default:
		return 0, fmt.Errorf("unknown transport %q", cfg.Transport)
	}
	if cfg.Batch < 1 {
		return 0, fmt.Errorf("batch must be ≥ 1")
	}
	items, _, err := genItems(cfg.Model, cfg.N, cfg.D, cfg.S, cfg.Elephants, cfg.K, cfg.Seed)
	if err != nil {
		return 0, err
	}
	client := scenario.NewClient(cfg.Target.BaseURL)
	if cfg.Create {
		err := client.CreateStream(ctx, cfg.Stream, scenario.StreamSpec{
			K: cfg.K, Universe: cfg.Universe, Shards: cfg.Shards,
			Eps: cfg.Eps, Delta: cfg.Delta,
		})
		if err != nil {
			return 0, fmt.Errorf("create stream %s: %w", cfg.Stream, err)
		}
	}
	sender := scenario.NewSender(client, cfg.Target, cfg.Stream, cfg.Transport)
	defer sender.Close() //nolint:errcheck // best-effort goodbye
	var pushed int64
	start := time.Now()
	for off := 0; off < len(items); off += cfg.Batch {
		end := min(off+cfg.Batch, len(items))
		if err := sender.Send(ctx, items[off:end]); err != nil {
			return pushed, err
		}
		pushed += int64(end - off)
	}
	el := time.Since(start).Seconds()
	if el > 0 {
		fmt.Fprintf(os.Stderr, "dpmg-gen: %.0f items/s (http %d, tcp %d, retries %d)\n",
			float64(pushed)/el, sender.Stats.HTTPBatches, sender.Stats.TCPFrames, sender.Stats.Retries)
	}
	return pushed, nil
}
