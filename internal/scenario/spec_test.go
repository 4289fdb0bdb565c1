package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestParseSpecRoundTrip(t *testing.T) {
	for _, name := range Names() {
		sp, err := Lookup(name, TierTiny)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := sp.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		data2, err := back.Marshal()
		if err != nil {
			t.Fatalf("%s: remarshal: %v", name, err)
		}
		if !bytes.Equal(data, data2) {
			t.Errorf("%s: marshal not stable under round-trip", name)
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name":"x","typo_knob":1,"streams":[]}`))
	if err == nil || !strings.Contains(err.Error(), "typo_knob") {
		t.Errorf("unknown field not rejected: %v", err)
	}
	_, err = ParseSpec([]byte(`{"name":"x","streams":[]} trailing`))
	if err == nil {
		t.Error("trailing data not rejected")
	}
}

// validBase returns a minimal valid spec tests mutate into invalid shapes.
func validBase() *Spec {
	return &Spec{
		Name: "t", Seed: 1,
		Streams: []StreamSpec{{
			Name: "s", K: 8, Universe: 64, Shards: 2,
			Eps: 8, Delta: 1.0 / (1 << 10),
			Model: "uniform", Items: 100,
		}},
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(sp *Spec) { sp.Name = "" }, "needs a name"},
		{"no streams", func(sp *Spec) { sp.Streams = nil }, "at least one stream"},
		{"k zero", func(sp *Spec) { sp.Streams[0].K = 0 }, "k must be"},
		{"universe one", func(sp *Spec) { sp.Streams[0].Universe = 1 }, "universe"},
		{"no shards", func(sp *Spec) { sp.Streams[0].Shards = 0 }, "shards"},
		{"bad eps", func(sp *Spec) { sp.Streams[0].Eps = 0 }, "budget"},
		{"no items", func(sp *Spec) { sp.Streams[0].Items = 0 }, "items"},
		{"bad model", func(sp *Spec) { sp.Streams[0].Model = "chaos" }, "unknown model"},
		{"bad transport", func(sp *Spec) { sp.Streams[0].Transport = "udp" }, "unknown transport"},
		{"zipf no skew", func(sp *Spec) { sp.Streams[0].Model = "zipf" }, "skew"},
		{"drift overflow", func(sp *Spec) {
			sp.Streams[0].Model = "drift"
			sp.Streams[0].Phases, sp.Streams[0].Heavy, sp.Streams[0].HeavyFrac = 10, 10, 0.5
		}, "drift"},
		{"burst under batch", func(sp *Spec) {
			sp.Streams[0].MaxIngestRate = 100
			sp.Streams[0].IngestBurst = 10
			sp.Streams[0].Batch = 50
		}, "ingest_burst"},
		{"negative qos", func(sp *Spec) { sp.Streams[0].MaxInflightReleases = -1 }, "non-negative"},
		{"grid over budget", func(sp *Spec) { sp.ReleaseEps = []float64{16} }, "over the stream"},
		{"storm without eps", func(sp *Spec) { sp.BudgetStorm = true }, "storm_eps"},
		{"storm with grid", func(sp *Spec) {
			sp.BudgetStorm, sp.StormEps = true, 0.5
			sp.ReleaseEps = []float64{1}
		}, "mutually exclusive"},
		{"cluster evict", func(sp *Spec) { sp.Cluster = true; sp.EvictEvery = 1 }, "cluster excludes"},
		{"duplicate names", func(sp *Spec) {
			sp.Streams = append(sp.Streams, sp.Streams[0])
		}, "duplicate stream name"},
		{"cluster config skew", func(sp *Spec) {
			sp.Cluster = true
			other := sp.Streams[0]
			other.Name, other.K = "s2", 16
			sp.Streams = append(sp.Streams, other)
		}, "cluster streams must share"},
	}
	for _, tc := range cases {
		sp := validBase()
		tc.mut(sp)
		err := sp.Normalize()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestCatalogComplete(t *testing.T) {
	for _, tier := range []Tier{TierTiny, TierSmoke, TierFull} {
		specs, err := Catalog(tier)
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		if len(specs) != len(Names()) {
			t.Fatalf("%s: %d specs, want %d", tier, len(specs), len(Names()))
		}
		for i, sp := range specs {
			if sp.Name != Names()[i] {
				t.Errorf("%s: spec %d is %q, want %q", tier, i, sp.Name, Names()[i])
			}
			if sp.Tier != string(tier) {
				t.Errorf("%s/%s: tier label %q", tier, sp.Name, sp.Tier)
			}
		}
	}
	if _, err := Lookup("flash-crowd", Tier("galactic")); err == nil {
		t.Error("unknown tier accepted")
	}
	if _, err := Lookup("nope", TierTiny); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestCatalogDyadic pins the property the bitwise ledger checks lean on:
// every ε and δ the shipped scenarios spend is exactly representable.
func TestCatalogDyadic(t *testing.T) {
	specs, err := Catalog(TierTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if !dyadic(sp.ReleaseDelta) {
			t.Errorf("%s: release_delta %g not dyadic", sp.Name, sp.ReleaseDelta)
		}
		for _, eps := range sp.ReleaseEps {
			if !dyadic(eps) {
				t.Errorf("%s: release_eps %g not dyadic", sp.Name, eps)
			}
		}
		if sp.BudgetStorm && !dyadic(sp.StormEps) {
			t.Errorf("%s: storm_eps %g not dyadic", sp.Name, sp.StormEps)
		}
		for _, ss := range sp.Streams {
			if !dyadic(ss.Eps) {
				t.Errorf("%s/%s: eps %g not dyadic", sp.Name, ss.Name, ss.Eps)
			}
			if !dyadic(ss.Delta) {
				t.Errorf("%s/%s: delta %g not dyadic", sp.Name, ss.Name, ss.Delta)
			}
		}
	}
}

func TestStormExpected(t *testing.T) {
	cases := []struct {
		budget, storm float64
		want          int
	}{
		{4, 0.5, 8},
		{8, 0.5, 16},
		{4, 4, 1},
		{4, 5, 0},
		{1, 0.25, 4},
	}
	for _, tc := range cases {
		if got := StormExpected(tc.budget, tc.storm); got != tc.want {
			t.Errorf("StormExpected(%g, %g) = %d, want %d", tc.budget, tc.storm, got, tc.want)
		}
	}
}

func TestReplicaNamesAndSeeds(t *testing.T) {
	ss := &StreamSpec{Name: "bg", Count: 3}
	if got := ss.ReplicaName(1); got != "bg-01" {
		t.Errorf("ReplicaName(1) = %q", got)
	}
	single := &StreamSpec{Name: "solo", Count: 1}
	if got := single.ReplicaName(0); got != "solo" {
		t.Errorf("single ReplicaName(0) = %q", got)
	}
	sp := &Spec{Seed: 42}
	a, b := sp.ReplicaSeed("bg-00"), sp.ReplicaSeed("bg-01")
	if a == b {
		t.Error("replica seeds collide")
	}
	if a != sp.ReplicaSeed("bg-00") {
		t.Error("replica seed not stable")
	}
	if sp.ReplicaSeed("") == 0 {
		t.Error("seed 0 not remapped")
	}
}

func TestGenerateDeterministicPerReplica(t *testing.T) {
	sp, err := Lookup("flash-crowd", TierTiny)
	if err != nil {
		t.Fatal(err)
	}
	ss := &sp.Streams[0]
	a, b := ss.Generate(sp, 0), ss.Generate(sp, 0)
	if len(a) != ss.Items {
		t.Fatalf("generated %d items, want %d", len(a), ss.Items)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs across identical generations", i)
		}
	}
	c := ss.Generate(sp, 1)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("replicas 0 and 1 generated identical sequences")
	}
}

func TestSpecAccounting(t *testing.T) {
	sp, err := Lookup("heavy-tail-tenants", TierTiny)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sp.TotalStreams(), 21; got != want {
		t.Errorf("TotalStreams = %d, want %d", got, want)
	}
	if got, want := sp.TotalItems(), int64(4000+4*1000+16*250); got != want {
		t.Errorf("TotalItems = %d, want %d", got, want)
	}
	eps, delta := sp.GridEps(&sp.Streams[0])
	if eps != 0.25+1+4 {
		t.Errorf("GridEps eps = %g", eps)
	}
	if delta != 3*DefaultReleaseDelta {
		t.Errorf("GridEps delta = %g", delta)
	}

	storm, err := Lookup("budget-storm", TierTiny)
	if err != nil {
		t.Fatal(err)
	}
	eps, _ = storm.GridEps(&storm.Streams[0])
	if eps != 4 {
		t.Errorf("storm GridEps eps = %g, want exactly 4", eps)
	}
	if !storm.Fingerprintable() {
		t.Error("standalone scenario not fingerprintable")
	}
	cluster, err := Lookup("cluster-fanin", TierTiny)
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Fingerprintable() {
		t.Error("cluster scenario claims full fingerprintability")
	}
	if !Tier(cluster.Tier).valid() {
		t.Errorf("cluster tier %q invalid", cluster.Tier)
	}
}

// valid reports whether the tier is a known size class (test helper).
func (t Tier) valid() bool {
	_, err := t.mult()
	return err == nil
}

// GridEps returns the total (ε, δ) one stream's release schedule spends:
// the grid sum, or the exact storm spend under the stream's budget.
func (sp *Spec) GridEps(ss *StreamSpec) (eps, delta float64) {
	if sp.BudgetStorm {
		m := StormExpected(ss.Eps, sp.StormEps)
		for i := 0; i < m; i++ {
			eps += sp.StormEps
			delta += sp.ReleaseDelta
		}
		return eps, delta
	}
	for _, e := range sp.ReleaseEps {
		eps += e
		delta += sp.ReleaseDelta
	}
	return eps, delta
}

// ParseSpec decodes and validates one scenario spec from JSON. Unknown
// fields are rejected (a typoed knob must not silently become a no-op)
// and defaults are normalized in place.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse spec: trailing data after JSON document")
	}
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	return &sp, nil
}
