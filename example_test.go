package dpmg_test

import (
	"bytes"
	"fmt"

	"dpmg"
)

// The basic flow: sketch a stream, release once, read the heavy hitters.
func Example() {
	sk := dpmg.NewSketch(16, 1000) // 16 counters over universe [1, 1000]
	for i := 0; i < 3000; i++ {
		sk.Update(dpmg.Item(i%3 + 1)) // items 1..3, 1000 times each
	}
	hh, err := dpmg.Release(sk, dpmg.Params{Eps: 1, Delta: 1e-6}, dpmg.WithSeed(42))
	if err != nil {
		panic(err)
	}
	for _, x := range hh.TopK(3) {
		fmt.Printf("item %d ~%d\n", x, int(hh.Get(x)+0.5))
	}
	// Output:
	// item 2 ~1002
	// item 3 ~1001
	// item 1 ~999
}

// String-keyed streams attach a dictionary in front of the sketch.
func ExampleStringSketch() {
	sk := dpmg.NewStringSketch(8, 100)
	for i := 0; i < 500; i++ {
		sk.Update("/checkout")
		if i%5 == 0 {
			sk.Update("/health")
		}
	}
	rel, err := sk.ReleaseTop(dpmg.Params{Eps: 1, Delta: 1e-6}, dpmg.WithSeed(7))
	if err != nil {
		panic(err)
	}
	fmt.Println("released", len(rel), "endpoints; first:", rel[0].Name)
	// Output:
	// released 2 endpoints; first: /checkout
}

// Distributed aggregation: merge per-server summaries, one private release.
func ExampleMergeSummaries() {
	var summaries []*dpmg.MergeableSummary
	for server := 0; server < 3; server++ {
		sk := dpmg.NewSketch(8, 100)
		for i := 0; i < 1000; i++ {
			sk.Update(7) // every server sees item 7 heavily
		}
		s, err := sk.Summary()
		if err != nil {
			panic(err)
		}
		summaries = append(summaries, s)
	}
	merged, err := dpmg.MergeSummaries(summaries...)
	if err != nil {
		panic(err)
	}
	// gaussian (sqrt(k) noise) is the default mechanism for merged summaries.
	h, err := dpmg.Release(merged, dpmg.Params{Eps: 1, Delta: 1e-6}, dpmg.WithSeed(3))
	if err != nil {
		panic(err)
	}
	fmt.Println("item 7 released:", h.Get(7) > 2500)
	// Output:
	// item 7 released: true
}

// User-level privacy: each user contributes a set of distinct items.
func ExampleUserSketch() {
	us := dpmg.NewUserSketch(32, 3)
	for u := 0; u < 2000; u++ {
		if err := us.AddUser([]dpmg.Item{1, 2, 3}); err != nil {
			panic(err)
		}
	}
	h, err := dpmg.Release(us, dpmg.Params{Eps: 1, Delta: 1e-6}, dpmg.WithSeed(9))
	if err != nil {
		panic(err)
	}
	fmt.Println("all three items released:", len(h.TopK(3)) == 3)
	// Output:
	// all three items released: true
}

// Continual observation: T private snapshots from one fixed budget.
func ExampleContinualMonitor() {
	m, err := dpmg.NewContinualMonitor(16, 100, 4, dpmg.Params{Eps: 4, Delta: 1e-5}, dpmg.ContinualDyadic, 11)
	if err != nil {
		panic(err)
	}
	for epoch := 0; epoch < 4; epoch++ {
		for i := 0; i < 1000; i++ {
			m.Update(9)
		}
		snap, err := m.EndEpoch()
		if err != nil {
			panic(err)
		}
		fmt.Printf("epoch %d: item 9 ~%d\n", epoch+1, int(snap.Get(9)/100+0.5)*100)
	}
	// Output:
	// epoch 1: item 9 ~1000
	// epoch 2: item 9 ~2000
	// epoch 3: item 9 ~3000
	// epoch 4: item 9 ~4000
}

// Multi-tenant serving: a Manager hosts independent named streams, each
// with its own sketch state, default mechanism, and privacy account.
func ExampleManager() {
	mgr, err := dpmg.NewManager(dpmg.StreamConfig{
		K: 32, Universe: 1000,
		Budget: dpmg.Budget{Eps: 4, Delta: 1e-4},
	})
	if err != nil {
		panic(err)
	}
	// Creation is idempotent; zero fields inherit the manager defaults.
	st, created, err := mgr.CreateStream("tenant-a", dpmg.StreamConfig{Mechanism: "laplace"})
	if err != nil {
		panic(err)
	}
	fmt.Println("created:", created)
	// Ingest raw items, validated against the stream's universe. (Node
	// summaries from edge sketches feed the same combined release view
	// via st.FoldSummary.)
	batch := make([]dpmg.Item, 3000)
	for i := range batch {
		batch[i] = dpmg.Item(i%3 + 7) // items 7..9, 1000 times each
	}
	if err := st.UpdateBatch(batch); err != nil {
		panic(err)
	}
	res, err := st.ReleaseDetailed(dpmg.Params{Eps: 1, Delta: 1e-5}, dpmg.WithSeed(3))
	if err != nil {
		panic(err)
	}
	fmt.Println("mechanism:", res.Mechanism)
	fmt.Println("top item:", res.Histogram.TopK(1)[0])
	fmt.Printf("remaining eps: %g\n", st.Accountant().Remaining().Eps)
	// Output:
	// created: true
	// mechanism: laplace
	// top item: 8
	// remaining eps: 3
}

// Durability: a snapshotted manager restores with identical estimates,
// byte-identical seeded releases, and exact remaining budgets.
func ExampleManager_snapshot() {
	mgr, err := dpmg.NewManager(dpmg.StreamConfig{
		K: 32, Universe: 1000,
		Budget: dpmg.Budget{Eps: 4, Delta: 1e-4},
	})
	if err != nil {
		panic(err)
	}
	st, _, err := mgr.CreateStream("tenant-a", dpmg.StreamConfig{})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 2000; i++ {
		if err := st.Update(dpmg.Item(i%5 + 1)); err != nil {
			panic(err)
		}
	}
	if _, err := st.ReleaseDetailed(dpmg.Params{Eps: 1, Delta: 1e-5}, dpmg.WithSeed(1)); err != nil {
		panic(err) // spend some budget so the restore has history to keep
	}

	var snapshot bytes.Buffer
	if err := mgr.Snapshot(&snapshot); err != nil {
		panic(err)
	}
	restored, err := dpmg.RestoreManager(&snapshot, mgr.Defaults())
	if err != nil {
		panic(err)
	}
	rst, _ := restored.Stream("tenant-a")

	// The restored stream continues exactly where the original stopped.
	h1, err1 := st.ReleaseDetailed(dpmg.Params{Eps: 0.5, Delta: 1e-5}, dpmg.WithSeed(9))
	h2, err2 := rst.ReleaseDetailed(dpmg.Params{Eps: 0.5, Delta: 1e-5}, dpmg.WithSeed(9))
	if err1 != nil || err2 != nil {
		panic("release failed")
	}
	same := len(h1.Histogram) == len(h2.Histogram)
	for x, v := range h1.Histogram {
		same = same && h2.Histogram[x] == v
	}
	fmt.Println("seeded releases identical:", same)
	fmt.Println("remaining budgets equal:",
		st.Accountant().Remaining() == rst.Accountant().Remaining())
	// Output:
	// seeded releases identical: true
	// remaining budgets equal: true
}

// Budget metering: the accountant refuses releases beyond the total budget.
func ExampleAccountant() {
	acct, err := dpmg.NewAccountant(dpmg.Budget{Eps: 1, Delta: 1e-5})
	if err != nil {
		panic(err)
	}
	sk := dpmg.NewSketch(8, 100)
	for i := 0; i < 1000; i++ {
		sk.Update(5)
	}
	p := dpmg.Params{Eps: 0.7, Delta: 1e-6}
	if _, err := dpmg.Release(sk, p, dpmg.WithSeed(1), dpmg.WithAccountant(acct)); err != nil {
		panic(err)
	}
	_, err = dpmg.Release(sk, p, dpmg.WithSeed(2), dpmg.WithAccountant(acct))
	fmt.Println("second release allowed:", err == nil)
	// Output:
	// second release allowed: false
}
