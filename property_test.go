package dpmg

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"dpmg/internal/hist"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// TestShardedEstimateProperties checks the two guarantees the sharded
// ingest path inherits from Misra-Gries, on randomized configurations:
// non-private estimates never exceed true counts (sketches only ever
// undercount), and undercount at most N/(k+1) — items live in exactly one
// shard, so the per-shard bound n_shard/(k+1) is itself at most N/(k+1).
func TestShardedEstimateProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 33))
	for trial := 0; trial < 12; trial++ {
		shards := 1 + rng.IntN(8)
		k := 16 << rng.IntN(3)
		d := 1 << (8 + rng.IntN(5))
		n := 20000 + rng.IntN(60000)
		var str stream.Stream
		if trial%2 == 0 {
			str = workload.Zipf(n, d, 1.0+rng.Float64(), uint64(trial+1))
		} else {
			str = workload.HeavyTail(n, d, 1+rng.IntN(6), 0.5+rng.Float64()/2, uint64(trial+1))
		}
		sk := NewShardedSketch(shards, k, uint64(d))
		sk.UpdateBatch(str)
		// Fold and publish so the property sweep exercises the published
		// read path; with writers quiesced the view is exact.
		if err := sk.Publish(); err != nil {
			t.Fatal(err)
		}
		f := hist.Exact(str)
		slack := int64(n) / int64(k+1)
		for x := Item(1); int(x) <= d; x++ {
			est := sk.Estimate(x)
			if est > f[x] {
				t.Fatalf("trial %d (shards=%d k=%d): item %d overestimated: %d > true %d",
					trial, shards, k, x, est, f[x])
			}
			if est < f[x]-slack {
				t.Fatalf("trial %d (shards=%d k=%d): item %d below bound: est %d true %d slack %d",
					trial, shards, k, x, est, f[x], slack)
			}
		}
	}
}

// TestMergedSummaryProperties checks the same two properties after the
// Agarwal et al. merge: a summary merged from disjoint shard sketches
// still never overestimates and keeps the N/(k+1) error bound over the
// whole stream (Section 7).
func TestMergedSummaryProperties(t *testing.T) {
	const (
		k = 64
		d = 1 << 12
		n = 80000
	)
	str := workload.Zipf(n, d, 1.1, 77)
	sk := NewShardedSketch(4, k, d)
	sk.UpdateBatch(str)
	sum, err := sk.Summary()
	if err != nil {
		t.Fatal(err)
	}
	f := hist.Exact(str)
	slack := int64(n) / int64(k+1)
	for x := Item(1); int(x) <= d; x++ {
		est := sum.inner.Estimate(x)
		if est > f[x] {
			t.Fatalf("merged summary overestimates item %d: %d > %d", x, est, f[x])
		}
		if est < f[x]-slack {
			t.Fatalf("merged summary below bound at item %d: est %d true %d slack %d",
				x, est, f[x], slack)
		}
	}
}

// TestShardedBatchMatchesSequential pins ShardedSketch.UpdateBatch to
// Update semantics: per-shard grouping must preserve each shard's stream
// order, so both ingest paths leave every shard in exactly the same state
// — counter table, stream length and decrement count. The shard counts
// sit on both sides of the mask/modulo split in shardOf and of a one-byte
// shard id, and the batch sizes are ragged so group boundaries fall
// everywhere.
func TestShardedBatchMatchesSequential(t *testing.T) {
	const d = 2000
	str := workload.HeavyTail(50000, d, 4, 0.7, 11)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 255, 256, 257} {
		a := NewShardedSketch(n, 8, d)
		b := NewShardedSketch(n, 8, d)
		for _, x := range str {
			a.Update(x)
		}
		for i, size := 0, 1; i < len(str); i, size = i+size, size*3%1021+1 {
			b.UpdateBatch(str[i:min(i+size, len(str))])
		}
		for i := range a.shards {
			sa, sb := a.shards[i].sk, b.shards[i].sk
			if sa.N() != sb.N() || sa.Decrements() != sb.Decrements() || !reflect.DeepEqual(sa.Counters(), sb.Counters()) {
				t.Fatalf("%d shards: shard %d diverges: n %d/%d decrements %d/%d\nseq   %v\nbatch %v",
					n, i, sa.N(), sb.N(), sa.Decrements(), sb.Decrements(), sa.Counters(), sb.Counters())
			}
		}
	}
}

// TestSketchBatchMatchesSequential does the same for the single-threaded
// public Sketch, through the dpmg API surface.
func TestSketchBatchMatchesSequential(t *testing.T) {
	str := workload.Zipf(30000, 1<<11, 1.05, 21)
	a := NewSketch(64, 1<<11)
	b := NewSketch(64, 1<<11)
	for _, x := range str {
		a.Update(x)
	}
	b.UpdateBatch(str)
	ha, err := Release(a, Params{Eps: 1, Delta: 1e-6}, WithSeed(4242))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Release(b, Params{Eps: 1, Delta: 1e-6}, WithSeed(4242))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ha, hb) {
		t.Fatalf("seeded releases diverge between ingest paths:\nseq   %v\nbatch %v", ha, hb)
	}
}

// TestAddUsersMatchesAddUser pins the user-level batch path: AddUsers must
// leave the sketch in the same state as per-user AddUser calls, and must
// reject a batch containing any invalid set without applying a prefix.
func TestAddUsersMatchesAddUser(t *testing.T) {
	sets := workload.UserSets(2000, 500, 6, 1.1, 31)
	a := NewUserSketch(64, 6)
	b := NewUserSketch(64, 6)
	for _, set := range sets {
		if err := a.AddUser(set); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddUsers(sets); err != nil {
		t.Fatal(err)
	}
	for x := Item(1); x <= 500; x++ {
		if a.Estimate(x) != b.Estimate(x) {
			t.Fatalf("item %d: AddUser %d AddUsers %d", x, a.Estimate(x), b.Estimate(x))
		}
	}
	// Invalid batches must be rejected atomically — neither the preceding
	// valid sets nor a prefix of the bad set may be applied. Item 0 is the
	// nasty case: it used to slip past validation and panic mid-ingest.
	for _, bad := range [][][]Item{
		{{1, 2}, {3, 3}}, // duplicate in second set
		{{1, 2}, {5, 0}}, // reserved item 0 in second set
		{{1, 2}, {}},     // empty second set
	} {
		before := b.Estimate(1)
		if err := b.AddUsers(bad); err == nil {
			t.Fatalf("invalid batch %v accepted", bad)
		}
		if b.Estimate(1) != before {
			t.Fatalf("rejected batch %v partially applied", bad)
		}
	}
}
