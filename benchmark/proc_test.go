package main

import (
	"strings"
	"testing"
)

func TestParseStatCPUCountsFromTheLastParen(t *testing.T) {
	// comm may hold spaces and parentheses; utime=700 stime=300 are fields 14, 15.
	line := "4242 (dpmg server) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 700 300 0 0 20 0 9 0 100 200 300"
	ticks, err := parseStatCPU(line)
	if err != nil || ticks != 1000 {
		t.Errorf("ticks = %d, %v; want 1000", ticks, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("a line without a command name must be refused")
	}
}

func TestParseMetricsSumsOverLabels(t *testing.T) {
	text := `# HELP dpmg_stream_items_ingested_total Raw items.
# TYPE dpmg_stream_items_ingested_total counter
dpmg_stream_items_ingested_total{stream="a"} 10
dpmg_stream_items_ingested_total{stream="b"} 32
dpmg_streams 2
dpmg_stream_throttled_total{stream="a",op="ingest"} 1
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["dpmg_stream_items_ingested_total"] != 42 || m["dpmg_streams"] != 2 || m["dpmg_stream_throttled_total"] != 1 {
		t.Errorf("parsed %v", m)
	}
}
