package dpmg

// One benchmark per experiment table (internal/experiment, E1–E10). Each
// target regenerates its table and logs it, so `go test -bench=E<n>`
// reproduces the corresponding claim. By default the reduced ("quick")
// problem sizes are used to keep `go test -bench=.` tractable; set
// DPMG_BENCH_FULL=1 for the full-size runs (cmd/dpmg-bench runs the same
// code as a standalone binary).

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dpmg/internal/experiment"
	"dpmg/internal/workload"
)

func benchConfig() experiment.Config {
	return experiment.Config{
		Quick: os.Getenv("DPMG_BENCH_FULL") == "",
		Seed:  1,
	}
}

func runExperiment(b *testing.B, id string) {
	r, ok := experiment.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := benchConfig()
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		tab := r(cfg)
		tab.Render(&out)
	}
	b.Log("\n" + out.String())
}

func BenchmarkE1NoiseVsK(b *testing.B)          { runExperiment(b, "E1") }
func BenchmarkE2Baselines(b *testing.B)         { runExperiment(b, "E2") }
func BenchmarkE3Crossover(b *testing.B)         { runExperiment(b, "E3") }
func BenchmarkE4PureDP(b *testing.B)            { runExperiment(b, "E4") }
func BenchmarkE5Sensitivity(b *testing.B)       { runExperiment(b, "E5") }
func BenchmarkE6Merging(b *testing.B)           { runExperiment(b, "E6") }
func BenchmarkE7UserLevel(b *testing.B)         { runExperiment(b, "E7") }
func BenchmarkE8MSE(b *testing.B)               { runExperiment(b, "E8") }
func BenchmarkE9Audit(b *testing.B)             { runExperiment(b, "E9") }
func BenchmarkE10Throughput(b *testing.B)       { runExperiment(b, "E10") }
func BenchmarkE11Continual(b *testing.B)        { runExperiment(b, "E11") }
func BenchmarkE12EvictionAblation(b *testing.B) { runExperiment(b, "E12") }
func BenchmarkE13SkewRobustness(b *testing.B)   { runExperiment(b, "E13") }
func BenchmarkE14EpsilonSweep(b *testing.B)     { runExperiment(b, "E14") }
func BenchmarkE15HugeUniverse(b *testing.B)     { runExperiment(b, "E15") }
func BenchmarkE16DriftMonitoring(b *testing.B)  { runExperiment(b, "E16") }

// Micro-benchmarks of the public API hot paths.

func BenchmarkSketchUpdate(b *testing.B) {
	const d = 1 << 16
	str := workload.Zipf(1<<20, d, 1.05, 1)
	sk := NewSketch(256, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(str[i&(1<<20-1)])
	}
}

func BenchmarkSketchUpdateAdversarial(b *testing.B) {
	const k = 256
	str := workload.Adversarial(1<<20, k)
	sk := NewSketch(k, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(str[i&(1<<20-1)])
	}
}

func BenchmarkSketchUpdateBatch(b *testing.B) {
	const d = 1 << 16
	str := workload.Zipf(1<<20, d, 1.05, 1)
	sk := NewSketch(256, d)
	b.ResetTimer()
	for i := 0; i < b.N; i += 1024 {
		lo := i & (1<<20 - 1)
		end := lo + 1024
		if end > 1<<20 {
			end = 1 << 20
		}
		sk.UpdateBatch(str[lo:end])
	}
}

// BenchmarkSketchUpdateServing is one shard's Update on the shape every
// BENCHMARK.json workload serves: k=256 over d=2^20, fed the items a
// 4-shard ShardedSketch routes to shard 0 of a Zipf(1.05) stream. With
// d >> k about half the updates are Branch 3 evictions, so this row is the
// Algorithm 1 miss path, where BenchmarkSketchUpdate (d=2^16) mostly hits.
func BenchmarkSketchUpdateServing(b *testing.B) {
	const d = 1 << 20
	router := NewShardedSketch(4, 256, d)
	var str []Item
	for _, x := range workload.Zipf(1<<22, d, 1.05, 1) {
		if router.shardOf(x) == 0 && len(str) < 1<<19 {
			str = append(str, x)
		}
	}
	if len(str) != 1<<19 {
		b.Fatalf("shard 0 got %d items, want 2^19", len(str))
	}
	sk := NewSketch(256, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(str[i&(1<<19-1)])
	}
}

// BenchmarkSketchUpdateHits is Update on the hot-http workload's shape:
// k=256 over d=2^20, fed uniform draws from 64 fixed keys, so after the
// first 64 items every update is a Branch 1 hit. It sits beside Serving
// (mostly misses) and Adversarial (hits in a pattern the branch predictor
// learns) so the hit path's own cost stays visible.
func BenchmarkSketchUpdateHits(b *testing.B) {
	const d, keys = 1 << 20, 64
	rng := rand.New(rand.NewPCG(1, 2))
	set := make([]Item, 0, keys)
	for seen := map[Item]bool{}; len(set) < keys; {
		if x := Item(rng.Uint64N(d) + 1); !seen[x] {
			seen[x] = true
			set = append(set, x)
		}
	}
	str := make([]Item, 1<<16)
	for i := range str {
		str[i] = set[rng.IntN(keys)]
	}
	sk := NewSketch(256, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(str[i&(1<<16-1)])
	}
}

func BenchmarkShardedUpdate(b *testing.B) {
	const d = 1 << 16
	str := workload.Zipf(1<<20, d, 1.05, 1)
	sk := NewShardedSketch(8, 256, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(str[i&(1<<20-1)])
	}
}

func BenchmarkShardedUpdateBatch(b *testing.B) {
	const d = 1 << 16
	str := workload.Zipf(1<<20, d, 1.05, 1)
	sk := NewShardedSketch(8, 256, d)
	b.ResetTimer()
	for i := 0; i < b.N; i += 4096 {
		lo := i & (1<<20 - 1)
		end := lo + 4096
		if end > 1<<20 {
			end = 1 << 20
		}
		sk.UpdateBatch(str[lo:end])
	}
}

func BenchmarkRelease(b *testing.B) {
	const d = 1 << 16
	sk := NewSketch(256, d)
	for _, x := range workload.Zipf(1<<20, d, 1.05, 2) {
		sk.Update(x)
	}
	p := Params{Eps: 1, Delta: 1e-6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Release(sk, p, WithSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Release(sk, p, WithSeed(1)); err != nil {
			b.Fatal(err)
		}
	})
	if allocs > maxReleaseAllocs {
		b.Fatalf("release allocates %.0f times per op, want <= %d", allocs, maxReleaseAllocs)
	}
}

// maxReleaseAllocs is the measured allocation count of one seeded laplace
// release of a k=256 sketch: the flat view's two columns, the calibration,
// and the released histogram's map growth.
const maxReleaseAllocs = 22

func BenchmarkUserSketchAddUser(b *testing.B) {
	sets := workload.UserSets(1<<14, 1<<14, 8, 1.05, 3)
	us := NewUserSketch(256, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := us.AddUser(sets[i&(1<<14-1)]); err != nil {
			b.Fatal(err)
		}
	}
}

func mergeBenchSummaries(b *testing.B) []*MergeableSummary {
	b.Helper()
	const d = 1 << 14
	var sums []*MergeableSummary
	for i := 0; i < 8; i++ {
		sk := NewSketch(256, d)
		for _, x := range workload.Zipf(1<<17, d, 1.05, uint64(i+4)) {
			sk.Update(x)
		}
		s, err := sk.Summary()
		if err != nil {
			b.Fatal(err)
		}
		sums = append(sums, s)
	}
	return sums
}

// BenchmarkMergeSummaries is the steady-state trusted-aggregator merge: 8
// summaries of k=256 folded per iteration through a reused SummaryMerger —
// the flat merge tree with zero allocations per merge.
func BenchmarkMergeSummaries(b *testing.B) {
	sums := mergeBenchSummaries(b)
	merger := NewSummaryMerger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merger.MergeAll(sums); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeSummariesOneShot is the allocating convenience path
// (MergeSummaries), for comparison against the steady-state merger above.
func BenchmarkMergeSummariesOneShot(b *testing.B) {
	sums := mergeBenchSummaries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeSummaries(sums...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateUnderIngest is the published read path's headline
// scenario: 8-way parallel point queries while a writer streams batch
// ingest. The locked variant reads the live counters through the shard
// mutexes (the pre-epoch path); the published variant is one atomic load
// plus a binary search and must run allocation-free. On a single-core
// runner the rows are at parity — the readers starve the writer, so the
// locked row measures an uncontended mutex; the contention and
// writer-hold tail the epoch path removes only manifest with real
// parallelism (see PERFORMANCE.md).
func BenchmarkEstimateUnderIngest(b *testing.B) {
	run := func(b *testing.B, published bool) {
		const d = 1 << 16
		str := workload.Zipf(1<<20, d, 1.05, 1)
		sk := NewShardedSketch(8, 256, d)
		sk.UpdateBatch(str)
		if published {
			if err := sk.Publish(); err != nil {
				b.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // background writer keeping the shard locks hot
			defer wg.Done()
			for i := 0; ; i += 4096 {
				select {
				case <-stop:
					return
				default:
				}
				lo := i & (1<<20 - 4096 - 1)
				sk.UpdateBatch(str[lo : lo+4096])
			}
		}()
		b.ReportAllocs()
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			var sink int64
			for pb.Next() {
				x := str[i&(1<<20-1)]
				if published {
					sink += sk.Estimate(x)
				} else {
					sink += sk.EstimateExact(x)
				}
				i++
			}
			_ = sink
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
	}
	b.Run("locked", func(b *testing.B) { run(b, false) })
	b.Run("published", func(b *testing.B) { run(b, true) })
}

// BenchmarkFaultIn is the cold-start tax of an offloaded tenant: load the
// delta-format offload record, decode it, canonically reconstruct the
// shard sketches, and synchronously publish the restored read view so the
// new generation never serves behind the old one (the bench ingests one
// item to trigger the fault-in, so the row includes one batch admission
// on top).
func BenchmarkFaultIn(b *testing.B) {
	m, err := NewManager(StreamConfig{
		K: 256, Universe: 1 << 16, Shards: 8,
		Budget: Budget{Eps: 4, Delta: 1e-4},
	})
	if err != nil {
		b.Fatal(err)
	}
	store, err := NewDirStore(filepath.Join(b.TempDir(), "streams"))
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetOffloadStore(store); err != nil {
		b.Fatal(err)
	}
	st, _, err := m.CreateStream("s", StreamConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.UpdateBatch(workload.Zipf(1<<18, 1<<16, 1.05, 7)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if evicted, err := m.Evict("s"); !evicted || err != nil {
			b.Fatalf("evict: %v %v", evicted, err)
		}
		b.StartTimer()
		if err := st.Update(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// The cold tier's allocation floor, pinned on the whole cycle because
	// the evict half cannot be taken out of an AllocsPerRun body: encode the
	// record into the pooled buffer and save it, then load, decode and
	// rebuild 8 shards. The timed loop above reports the fault-in half.
	allocs := testing.AllocsPerRun(20, func() {
		if evicted, err := m.Evict("s"); !evicted || err != nil {
			b.Fatalf("evict: %v %v", evicted, err)
		}
		if err := st.Update(1); err != nil {
			b.Fatal(err)
		}
	})
	if allocs > maxColdCycleAllocs {
		b.Fatalf("evict + fault-in allocates %.0f times per cycle, want <= %d", allocs, maxColdCycleAllocs)
	}
}

// maxColdCycleAllocs is the measured allocation count of one evict +
// fault-in cycle of an 8-shard k=256 stream over a DirStore.
const maxColdCycleAllocs = 95

// BenchmarkShardedRelease is the sharded merge+release pipeline end to end:
// snapshot 8 shards, k-way merge, Gaussian release. The Gaussian
// calibration is memoized (internal/gshm), so after the first iteration
// the row measures the steady-state release: fold, clone, noise.
func BenchmarkShardedRelease(b *testing.B) {
	const d = 1 << 16
	sk := NewShardedSketch(8, 256, d)
	sk.UpdateBatch(workload.Zipf(1<<20, d, 1.05, 9))
	p := Params{Eps: 1, Delta: 1e-6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Release(sk, p, WithSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
