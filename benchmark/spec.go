package main

// metricDef names one reported metric. The tables below are the benchmark's
// contract: BENCHMARK.json lists the same names, units and bounds (a unit
// test compares them), and every run reports every metric of the kind it
// measured — end-to-end metrics from the untraced window, per-layer metrics
// from the traced run.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// runSeconds is the measured window BENCHMARK.json asks the driver for, and
// the default of -seconds.
const runSeconds = 20

// endToEnd are the metrics a tenant of the service sees. Each is defined on
// every workload through the workload's primary op (workloads[i].op). The
// bounds are what a shared 2-vCPU host lets a run resolve: its speed wanders
// by a tenth either way from minute to minute, and a neighbour's slow
// stretch that outlasts a run's waiting time (host.go) costs 30–50 % (see
// README.md).
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "server_cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<metric>. A workload that does not exercise a layer reports 0
// for it: the zero is the statement that the workload bypasses the layer.
var perLayer = []metricDef{
	// host: the machine under everything, as the speed probe sees it.
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
	// client: the generator, on internal/scenario's driver and framing.Client.
	{Name: "client.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.op_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.op_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.op_samples", Unit: "count", Better: "higher"},
	{Name: "client.ops_failed", Unit: "count", Better: "lower"},
	{Name: "client.estimate_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.estimate_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.mix_ingest_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.mix_ingest_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.stats_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.scrape_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.evict_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.evict_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.faultin_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.faultin_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.cpu_share", Unit: "%", Better: "lower"},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower"},
	// server: cmd/dpmg-server, observed from outside.
	{Name: "server.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "server.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "server.http_floor_us", Unit: "us", Better: "lower"},
	{Name: "server.protocol_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "server.release_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.items_ingested", Unit: "count", Better: "higher"},
	{Name: "server.batches", Unit: "count", Better: "higher"},
	{Name: "server.refusals", Unit: "count", Better: "lower"},
	{Name: "server.releases", Unit: "count", Better: "higher"},
	{Name: "server.evictions", Unit: "count", Better: "higher"},
	{Name: "server.fault_ins", Unit: "count", Better: "higher"},
	// framing: the TCP datapath's wire format.
	{Name: "framing.tcp_floor_us", Unit: "us", Better: "lower"},
	{Name: "framing.parse_header_ns", Unit: "ns", Better: "lower"},
	{Name: "framing.bytes_per_item", Unit: "B", Better: "lower"},
	// encoding: the byte codecs.
	{Name: "encoding.decode_items_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "encoding.summary_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "encoding.summary_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "encoding.stream_record_encode_us", Unit: "us", Better: "lower"},
	{Name: "encoding.stream_record_decode_us", Unit: "us", Better: "lower"},
	{Name: "encoding.stream_record_bytes", Unit: "B", Better: "lower"},
	// qos: admission.
	{Name: "qos.admit_ns", Unit: "ns", Better: "lower"},
	// manager: dpmg.Manager / dpmg.Stream.
	{Name: "manager.update_batch_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "manager.estimate_ns", Unit: "ns", Better: "lower"},
	{Name: "manager.stats_us", Unit: "us", Better: "lower"},
	{Name: "manager.fold_summary_us", Unit: "us", Better: "lower"},
	{Name: "manager.cut_summary_us", Unit: "us", Better: "lower"},
	// sharded: dpmg.ShardedSketch.
	{Name: "sharded.update_batch_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "sharded.route_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "sharded.summary_us", Unit: "us", Better: "lower"},
	{Name: "sharded.publish_us", Unit: "us", Better: "lower"},
	// mg: Algorithm 1.
	{Name: "mg.update_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "mg.decrements_per_kitem", Unit: "count", Better: "lower"},
	{Name: "mg.err_over_envelope", Unit: "ratio", Better: "lower"},
	// merge: the Agarwal et al. merge.
	{Name: "merge.merge_all_us", Unit: "us", Better: "lower"},
	// release: dpmg.ReleaseDetailed and the mechanisms.
	{Name: "release.detailed_us", Unit: "us", Better: "lower"},
	{Name: "release.calibrate_us", Unit: "us", Better: "lower"},
	{Name: "release.noise_us", Unit: "us", Better: "lower"},
	{Name: "accountant.spend_ns", Unit: "ns", Better: "lower"},
	// cluster: the edge-to-root tier.
	{Name: "cluster.decode_us", Unit: "us", Better: "lower"},
	{Name: "cluster.spool_save_us", Unit: "us", Better: "lower"},
	{Name: "cluster.payload_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.fold_overhead_us", Unit: "us", Better: "lower"},
	{Name: "cluster.folded", Unit: "count", Better: "higher"},
	{Name: "cluster.deduped", Unit: "count", Better: "higher"},
	// lifecycle: the cold tier.
	{Name: "lifecycle.evict_us", Unit: "us", Better: "lower"},
	{Name: "lifecycle.faultin_us", Unit: "us", Better: "lower"},
	{Name: "lifecycle.store_save_us", Unit: "us", Better: "lower"},
	{Name: "lifecycle.store_load_us", Unit: "us", Better: "lower"},
	{Name: "lifecycle.restore_us", Unit: "us", Better: "lower"},
}

// spanMetrics maps a per-layer metric onto the replay span it is the median
// of, and the divisor that turns the span's nanoseconds per unit into the
// metric's unit.
var spanMetrics = []struct {
	metric, span string
	div          float64
}{
	{"framing.parse_header_ns", "framing.parse_header", 1},
	{"encoding.decode_items_ns_per_item", "encoding.decode_items", 1},
	{"encoding.summary_decode_ns", "encoding.summary_decode", 1},
	{"encoding.summary_encode_ns", "encoding.summary_encode", 1},
	{"encoding.stream_record_encode_us", "encoding.stream_record_encode", 1e3},
	{"encoding.stream_record_decode_us", "encoding.stream_record_decode", 1e3},
	{"qos.admit_ns", "qos.admit", 1},
	{"manager.update_batch_ns_per_item", "manager.update_batch", 1},
	{"manager.estimate_ns", "manager.estimate", 1},
	{"manager.stats_us", "manager.stats", 1e3},
	{"manager.fold_summary_us", "manager.fold_summary", 1e3},
	{"manager.cut_summary_us", "manager.cut_summary", 1e3},
	{"sharded.update_batch_ns_per_item", "sharded.update_batch", 1},
	{"sharded.summary_us", "sharded.summary", 1e3},
	{"sharded.publish_us", "sharded.publish", 1e3},
	{"mg.update_ns_per_item", "mg.update", 1},
	{"merge.merge_all_us", "merge.merge_all", 1e3},
	{"release.detailed_us", "release.detailed", 1e3},
	{"release.calibrate_us", "release.calibrate", 1e3},
	{"release.noise_us", "release.noise", 1e3},
	{"accountant.spend_ns", "accountant.spend", 1},
	{"cluster.decode_us", "cluster.decode", 1e3},
	{"cluster.spool_save_us", "cluster.spool_save", 1e3},
	{"lifecycle.evict_us", "lifecycle.evict", 1e3},
	{"lifecycle.faultin_us", "lifecycle.faultin", 1e3},
	{"lifecycle.store_save_us", "lifecycle.store_save", 1e3},
	{"lifecycle.store_load_us", "lifecycle.store_load", 1e3},
	{"lifecycle.restore_us", "lifecycle.restore", 1e3},
}
