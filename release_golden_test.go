package dpmg

// TestReleaseGolden pins literal released values: for fixed inputs from
// internal/workload and fixed seeds, the math.Float64bits of every released
// (item, value), the calibration metadata and the accountant state after
// each release must equal testdata/golden/releases.json. The file was
// written by commit ae44eff (the parent of the change that made flat
// columns the only ReleaseView layout) running goldenReleases below, so it
// holds the release tier to the bytes the map-based loops produced.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dpmg/internal/workload"
)

// goldenValue is one released pair. Item is set for item releases, Name for
// StringSketch.ReleaseTop (whose order is part of the contract). Bits is
// math.Float64bits in hex: JSON numbers cannot carry 64 bits.
type goldenValue struct {
	Item uint64 `json:"item,omitempty"`
	Name string `json:"name,omitempty"`
	Bits string `json:"bits"`
}

type goldenCase struct {
	Name      string            `json:"name"`
	Mechanism string            `json:"mechanism,omitempty"`
	Meta      map[string]string `json:"meta,omitempty"`
	Values    []goldenValue     `json:"values"`
	// Accountant state after the release.
	SpentEps   string `json:"spent_eps"`
	SpentDelta string `json:"spent_delta"`
	Releases   int    `json:"releases"`
}

func bitsOf(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func (c *goldenCase) account(a *Accountant) {
	_, spent, rel := a.State()
	c.SpentEps, c.SpentDelta, c.Releases = bitsOf(spent.Eps), bitsOf(spent.Delta), rel
}

func goldenOf(name string, res *ReleaseResult, a *Accountant) goldenCase {
	c := goldenCase{Name: name, Mechanism: res.Mechanism, Meta: map[string]string{}, Values: []goldenValue{}}
	for k, v := range res.Meta {
		c.Meta[k] = bitsOf(v)
	}
	for _, x := range res.Histogram.Items() {
		c.Values = append(c.Values, goldenValue{Item: uint64(x), Bits: bitsOf(res.Histogram[x])})
	}
	c.account(a)
	return c
}

// goldenReleases runs every pinned release. One accountant meters all the
// library front-ends in order, so its running float sums are pinned too;
// the managed stream is metered by its own.
func goldenReleases(t *testing.T) []goldenCase {
	t.Helper()
	acct, err := NewAccountant(Budget{Eps: 64, Delta: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Eps: 1, Delta: 1e-6}
	var out []goldenCase
	rel := func(name string, sk Releasable, p Params, opts ...ReleaseOption) {
		t.Helper()
		res, err := ReleaseDetailed(sk, p, append(opts, WithAccountant(acct))...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, goldenOf(name, res, acct))
	}

	sk := loadedSketch(1)
	rel("sketch/laplace", sk, p, WithMechanism(MechanismLaplace), WithSeed(9001))
	rel("sketch/geometric", sk, p, WithMechanism(MechanismGeometric), WithSeed(9001))
	rel("sketch/pure", sk, Params{Eps: 1}, WithMechanism(MechanismPure), WithSeed(9001))
	rel("sketch/gaussian", sk, p, WithMechanism(MechanismGaussian), WithSeed(9001))
	rel("sketch/laplace/top3", sk, p, WithSeed(9001), WithTopK(3))

	std := NewStandardSketch(16)
	for _, x := range workload.Zipf(60000, 300, 1.2, 3) {
		std.Update(x)
	}
	rel("standard/laplace", std, p, WithSeed(77))

	var sums []*MergeableSummary
	for i := 0; i < 3; i++ {
		s, err := loadedSketch(uint64(20 + i)).Summary()
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	merged, err := MergeSummaries(sums...)
	if err != nil {
		t.Fatal(err)
	}
	rel("summary/laplace", merged, p, WithMechanism(MechanismLaplace), WithSeed(5))
	rel("summary/gaussian", merged, p, WithSeed(5))

	sh := NewShardedSketch(4, 32, 500)
	sh.UpdateBatch(workload.HeavyTail(60000, 500, 3, 0.9, 4))
	rel("sharded/gaussian", sh, p, WithSeed(13))
	rel("sharded/laplace", sh, p, WithMechanism(MechanismLaplace), WithSeed(13))

	us := NewUserSketch(64, 4)
	if err := us.AddUsers(workload.UserSets(8000, 300, 4, 1.1, 6)); err != nil {
		t.Fatal(err)
	}
	rel("user/gaussian", us, p, WithSeed(21))

	mon, err := NewContinualMonitor(32, 300, 4, Params{Eps: 2, Delta: 1e-5}, ContinualUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range workload.HeavyTail(40000, 300, 3, 0.9, 9) {
		mon.Update(x)
	}
	rel("continual/adhoc", mon, Params{Eps: 1, Delta: 1e-7}, WithSeed(3))

	str := NewStringSketch(16, 100)
	queries, dict := workload.QueryLog(30000, 100, 1.3, 8)
	names := make([]string, len(queries))
	for i, q := range queries {
		names[i] = dict.Name(q)
	}
	if err := str.UpdateBatch(names); err != nil {
		t.Fatal(err)
	}
	top, err := str.ReleaseTop(p, WithSeed(31), WithAccountant(acct))
	if err != nil {
		t.Fatal(err)
	}
	sc := goldenCase{Name: "string/releasetop", Values: []goldenValue{}}
	for _, pr := range top {
		sc.Values = append(sc.Values, goldenValue{Name: pr.Name, Bits: bitsOf(pr.Count)})
	}
	sc.account(acct)
	out = append(out, sc)

	// A managed stream holding both tiers: raw shards plus a folded node
	// summary, released twice (class default, then laplace) on its own
	// accountant.
	mgr, err := NewManager(StreamConfig{K: 32, Universe: 500, Shards: 4, Budget: Budget{Eps: 8, Delta: 1e-4}})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := mgr.CreateStream("golden", StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(workload.HeavyTail(50000, 500, 3, 0.9, 14)); err != nil {
		t.Fatal(err)
	}
	if err := st.FoldSummary(sums[0]); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts []ReleaseOption
	}{
		{"stream/default", []ReleaseOption{WithSeed(17)}},
		{"stream/laplace", []ReleaseOption{WithMechanism(MechanismLaplace), WithSeed(17)}},
	} {
		res, err := st.ReleaseDetailed(p, c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, goldenOf(c.name, res, st.Accountant()))
	}
	return out
}

func TestReleaseGolden(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("testdata", "golden", "releases.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenReleases(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases released, golden holds %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("case %d is %q, golden has %q", i, g.Name, w.Name)
		}
		if len(w.Values) == 0 {
			t.Errorf("%s: golden is empty, it pins nothing", w.Name)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: release differs from the golden\n got  %+v\n want %+v", w.Name, g, w)
		}
	}
}
