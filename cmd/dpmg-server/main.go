// Command dpmg-server runs a multi-tenant trusted aggregator for the
// distributed heavy-hitters setting of the paper's Section 7. A stream
// manager holds any number of named streams — independent edge populations,
// each with its own universe, sketch state, default mechanism, and
// (eps, delta) budget. Edge nodes either sketch their local streams with
// Misra-Gries summaries (dpmg.Sketch → Summary → encoding.AppendSummary)
// and POST them, or ship raw item batches for the server to sketch itself;
// analysts GET differentially private releases, metered against each
// stream's own budget.
//
//	dpmg-server -addr :8080 -k 256 -d 1048576 -eps 4 -delta 1e-5 -state /var/lib/dpmg
//
// Endpoints:
//
//	POST   /v1/streams                  create a stream (idempotent); JSON
//	                                    body {name, k, universe, shards,
//	                                    mechanism, eps, delta} — zero fields
//	                                    inherit the server flag defaults
//	GET    /v1/streams                  list streams (ascending name order)
//	DELETE /v1/streams/{s}              drop a stream and its state
//	POST   /v1/streams/{s}/summary      binary mergeable summary (wire format
//	                                    in internal/encoding); folded into
//	                                    the stream's aggregate with bounded
//	                                    (2k) memory
//	POST   /v1/streams/{s}/batch        raw item batch (8-byte little-endian
//	                                    items, encoding.MarshalItems);
//	                                    sketched server-side on the stream's
//	                                    sharded ingest path
//	GET    /v1/streams/{s}/release?eps=&delta=[&mech=<registry name>]
//	                                    private histogram over summaries ∪
//	                                    batches; spends the stream's budget
//	GET    /v1/streams/{s}/stats        JSON: merges, batches, counters,
//	                                    remaining budget, residency,
//	                                    lifecycle/QoS tallies
//	GET    /metrics                     Prometheus text exposition: per-
//	                                    stream ingest/release/budget/
//	                                    residency/throttle series (cheap:
//	                                    no summary folds, no fault-ins,
//	                                    does not reset stream idle TTLs)
//
// A server starts with no streams beyond those it restores: every stream
// is created by POST /v1/streams (or, on a root, by edge fan-in), and the
// -k/-d/-eps/-delta flags are only the defaults a create inherits. Handler
// error responses are always the JSON envelope {"error": "..."}; only
// net/http's router-level 405/404 replies stay plain text.
//
// # Streaming binary ingest (-ingest-addr)
//
// Beside the HTTP API, -ingest-addr opens a plain-TCP listener carrying
// length-prefixed binary item frames (wire format in internal/framing).
// A connection binds to a stream once, then pushes data frames whose
// payloads are the same consecutive 8-byte little-endian items as
// POST .../batch; each frame gets a binary ack mirroring the HTTP status
// classes, and all batch semantics (universe validation, QoS token
// bucket, lifecycle fault-in, all-or-nothing refusal) apply per frame.
// This removes the fixed per-request HTTP overhead for high-rate edges;
// see PERFORMANCE.md. Connections idle past -ingest-idle-timeout are
// closed, and the listener drains on SIGINT/SIGTERM under the same
// -shutdown-grace window as the HTTP server, before the final snapshot.
//
// With -state set, the manager's full state (stream table, counters,
// remaining budgets) is snapshotted to <dir>/manager.snapshot periodically
// and on shutdown, and restored on the next start: a restarted server
// resumes every stream with identical estimates, byte-identical seeded
// releases, and exactly the budget it went down with.
//
// # Stream lifecycle (TTL eviction)
//
// With -ttl set (requires -state), streams idle past the TTL are evicted
// on an -evict-interval sweep: each one's full state is offloaded to
// <state>/streams/<name>.stream and only a small stub stays in RAM. The
// next access to the stream faults it back in transparently with identical
// estimates, byte-identical seeded releases, and its exact remaining
// budget. At startup, offloaded streams are recovered as stubs (they stay
// on disk until first access), so restarts do not fault the cold tier in.
//
// # Per-stream QoS
//
// -max-ingest-rate (items/second, token bucket of -ingest-burst items) and
// -max-inflight-releases bound each stream independently; violations get
// 429 with the JSON error envelope and a Retry-After hint. Per-stream
// overrides come from the POST /v1/streams body (max_ingest_rate,
// ingest_burst, max_inflight_releases; -1 = explicitly unlimited). QoS
// ceilings are operational policy: they are not persisted, and a restart
// re-applies the current flags.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// drain (up to -shutdown-grace), then the final snapshot is flushed.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"dpmg"
	"dpmg/internal/cluster"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		k          = flag.Int("k", 256, "default summary size for new streams")
		d          = flag.Uint64("d", 1<<20, "default universe bound for new streams")
		eps        = flag.Float64("eps", 4, "default total epsilon budget per stream")
		delta      = flag.Float64("delta", 1e-5, "default total delta budget per stream")
		shards     = flag.Int("shards", 0, "default raw-ingest shards per stream (0 = min(GOMAXPROCS, 16))")
		mech       = flag.String("mech", "", "default release mechanism for new streams (registry name; empty = per-class default)")
		ingestAddr = flag.String("ingest-addr", "", "listen address for the streaming binary ingest datapath (empty = disabled)")
		ingestIdle = flag.Duration("ingest-idle-timeout", 2*time.Minute, "close a streaming ingest connection after this long without a frame")

		stateDir = flag.String("state", "", "directory for durable manager snapshots (empty = no persistence)")
		flushInt = flag.Duration("snapshot-interval", 30*time.Second, "periodic snapshot interval when -state is set (<= 0 disables periodic flushes; the shutdown flush still runs)")
		grace    = flag.Duration("shutdown-grace", 10*time.Second, "how long in-flight requests may drain on shutdown")

		role         = flag.String("role", "standalone", "server role: standalone, edge (ship summaries upstream), or root (accept edge fan-in)")
		clusterAddr  = flag.String("cluster-addr", "", "root: listen address for the edge fan-in listener (required with -role=root)")
		upstream     = flag.String("upstream", "", "edge: the root's -cluster-addr to ship summaries to (required with -role=edge)")
		edgeID       = flag.String("edge-id", "", "edge: stable identity at the root; MUST survive restarts (required with -role=edge)")
		shipInterval = flag.Duration("ship-interval", 5*time.Second, "edge: how often local streams are cut and shipped upstream")
		spoolDir     = flag.String("spool", "", "edge: directory for the durable cut spool (required with -role=edge)")

		ttl       = flag.Duration("ttl", 0, "idle TTL before a stream is offloaded to disk (0 = never evict; requires -state)")
		evictInt  = flag.Duration("evict-interval", time.Minute, "how often the idle-eviction sweep runs when -ttl is set")
		qosRate   = flag.Float64("max-ingest-rate", 0, "default per-stream ingest ceiling in items/second (0 = unlimited)")
		qosBurst  = flag.Int("ingest-burst", 0, "default per-stream token-bucket burst in items (0 = one second of -max-ingest-rate)")
		qosInrels = flag.Int("max-inflight-releases", 0, "default per-stream cap on concurrent release calls (0 = unlimited)")

		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof on the admin mux and enable mutex profiling (operator-only: profiles expose internals; never expose the port publicly with this on)")
	)
	flag.Parse()

	if *ttl > 0 && *stateDir == "" {
		log.Fatal("-ttl requires -state: evicted streams offload to <state>/streams")
	}
	switch *role {
	case "standalone":
	case "edge":
		if *upstream == "" || *edgeID == "" || *spoolDir == "" {
			log.Fatal("-role=edge requires -upstream, -edge-id, and -spool")
		}
		if *stateDir != "" {
			// Stateless-edge doctrine: a manager snapshot restored from
			// before a cut would resurrect traffic the cut already shipped
			// (cuts preserve the monotone counters, so snapshot age cannot
			// detect it) and the root would double-count. The spool is the
			// edge's only durable state.
			log.Fatal("-role=edge refuses -state: the spool is the edge's only durable state; a restored snapshot predating a cut would double-count shipped traffic at the root")
		}
	case "root":
		if *clusterAddr == "" {
			log.Fatal("-role=root requires -cluster-addr")
		}
	default:
		log.Fatalf("unknown -role %q (standalone, edge, or root)", *role)
	}
	defaults := dpmg.StreamConfig{
		K: *k, Universe: *d, Shards: *shards, Mechanism: *mech,
		Budget:              dpmg.Budget{Eps: *eps, Delta: *delta},
		MaxIngestRate:       *qosRate,
		IngestBurst:         *qosBurst,
		MaxInflightReleases: *qosInrels,
	}
	mgr, restored, err := loadOrNewManager(*stateDir, defaults)
	if err != nil {
		log.Fatal(err)
	}
	// The offload store is attached whenever state is durable (not only
	// when -ttl is set): previously offloaded streams must recover after a
	// restart, and stream deletion must clean their records up.
	if *stateDir != "" {
		store, err := dpmg.NewDirStore(filepath.Join(*stateDir, "streams"))
		if err != nil {
			log.Fatal(err)
		}
		if err := mgr.SetOffloadStore(store); err != nil {
			log.Fatal(err)
		}
		recovered, err := mgr.RecoverOffloaded()
		if err != nil {
			log.Fatal(err)
		}
		if recovered > 0 {
			log.Printf("recovered %d offloaded stream(s) (cold: faulted in on first access)", recovered)
		}
	}
	s := &server{
		mgr: mgr, stateDir: *stateDir, hasStore: *stateDir != "",
		drainGrace: *grace, pprof: *pprofOn,
	}
	if *pprofOn {
		// A sampled mutex profile is the instrument the fold-lane work is
		// judged by; it is cheap enough to leave on for a profiling session.
		runtime.SetMutexProfileFraction(16)
		log.Printf("pprof mounted on /debug/pprof/ (operator-only)")
	}
	if restored {
		log.Printf("restored %d stream(s) from %s", mgr.Len(), *stateDir)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Aggregation-tier wiring (see cluster.go and internal/cluster).
	var clusterLn net.Listener
	switch *role {
	case "edge":
		sp, err := cluster.OpenSpool(*spoolDir)
		if err != nil {
			log.Fatal(err)
		}
		shipper, err := cluster.NewShipper(cluster.ShipperConfig{
			Manager: mgr, EdgeID: *edgeID, Upstream: *upstream, Spool: sp,
			Interval: *shipInterval, Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		s.attachEdge(shipper, sp)
		go shipper.Run(ctx) //nolint:errcheck // returns ctx.Err() on shutdown
		log.Printf("edge %q shipping to %s every %s (spool: %s, %d record(s) pending)",
			*edgeID, *upstream, *shipInterval, *spoolDir, sp.Pending())
	case "root":
		root, err := cluster.NewRoot(cluster.RootConfig{Manager: mgr, AutoCreate: true, Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
		if *stateDir != "" {
			if err := loadClusterSeqs(root, *stateDir); err != nil {
				log.Fatal(err)
			}
		}
		clusterLn, err = net.Listen("tcp", *clusterAddr)
		if err != nil {
			log.Fatal(err)
		}
		s.attachRoot(root)
		go func() {
			if err := root.Serve(clusterLn); err != nil {
				log.Printf("cluster listener: %v", err)
			}
		}()
		log.Printf("root fan-in listening on %s", clusterLn.Addr())
	}

	// Streaming binary ingest listener (see ingest.go): a persistent-TCP
	// datapath beside the HTTP API for high-rate edges. It drains on the
	// same signal, under the same grace window, as the HTTP server.
	var ingest *ingestServer
	if *ingestAddr != "" {
		ln, err := net.Listen("tcp", *ingestAddr)
		if err != nil {
			log.Fatal(err)
		}
		ingest = newIngestServer(s, ln, *ingestIdle)
		go ingest.serve()
		log.Printf("streaming ingest listening on %s (idle timeout %s)", ln.Addr(), *ingestIdle)
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("dpmg-server listening on %s (defaults: k=%d, d=%d, budget eps=%g delta=%g)",
			*addr, *k, *d, *eps, *delta)
		errc <- srv.ListenAndServe()
	}()

	// Idle-eviction sweep: every -evict-interval, streams idle past -ttl
	// are offloaded to the store and their RAM reclaimed. The sweep never
	// contends with hot streams (idleness is re-checked under each
	// stream's own lifecycle lock).
	if *ttl > 0 {
		go func() {
			ticker := time.NewTicker(*evictInt)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if n, err := mgr.EvictIdle(*ttl); err != nil {
						log.Printf("idle eviction failed: %v", err)
					} else if n > 0 {
						log.Printf("evicted %d idle stream(s) to %s", n, *stateDir)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	// Periodic snapshot flush: a crash loses at most one interval of
	// ingest, never the whole stream table. A non-positive interval
	// disables the ticker (NewTicker panics on it) and leaves only the
	// shutdown flush.
	if *stateDir != "" && *flushInt > 0 {
		go func() {
			ticker := time.NewTicker(*flushInt)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := s.saveState(*stateDir); err != nil {
						log.Printf("periodic snapshot failed: %v", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	select {
	case err := <-errc:
		// ListenAndServe only returns pre-Shutdown on a hard failure.
		log.Fatal(err)
	case <-ctx.Done():
		log.Printf("signal received, draining requests (up to %s)", *grace)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Both datapaths drain concurrently under the same grace window; the
	// final snapshot below must run after BOTH so streamed items land in
	// the quiescent image.
	var drain sync.WaitGroup
	if ingest != nil {
		drain.Add(1)
		go func() {
			defer drain.Done()
			if err := ingest.Shutdown(shutdownCtx); err != nil {
				log.Printf("ingest shutdown: %v", err)
			}
		}()
	}
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	drain.Wait()
	switch {
	case s.clusterShipper != nil:
		// Final upstream flush: ship the spool backlog and one last cut of
		// every stream. Failure is not fatal — the spool survives the
		// process, and the restarted edge re-ships idempotently.
		if err := s.clusterShipper.Flush(shutdownCtx); err != nil {
			log.Printf("upstream flush incomplete (spool records will re-ship on restart): %v", err)
		}
	case s.clusterRoot != nil:
		// Quiesce the fan-in before the final snapshot so the snapshot and
		// the dedup table capture the same fold set.
		s.clusterRoot.Shutdown()
	}
	if *stateDir != "" {
		// Final flush after the listener is closed: writers have drained, so
		// this snapshot is the quiescent, byte-exact image of every stream.
		if err := s.saveState(*stateDir); err != nil {
			log.Fatalf("final snapshot failed: %v", err)
		}
		log.Printf("state flushed to %s", *stateDir)
	}
}
