package encoding

import (
	"testing"

	"dpmg/internal/mg"
	"dpmg/internal/workload"
)

// maxOffloadRecordAllocs pins the allocation ceiling of encoding one
// 8-shard k=256 offload record from its sketches into a warmed buffer: the
// key/count column pair every shard's AppendAll reuses. The record buffer
// itself is reused and must contribute nothing.
const maxOffloadRecordAllocs = 2

// BenchmarkOffloadRecord encodes a populated stream offload record with
// AppendStream into a reused buffer, from live shard sketches (the
// lifecycle tier hands the encoder the same tables already extracted, as
// ShardWires, so its encode skips the AppendAll this row includes),
// reporting encode throughput and, as the record_bytes metric, the
// cold-tier footprint of one record (pinned severalfold below the
// fixed-entry form by TestDeltaRecordSmaller).
//
// MB/s is logical-state throughput: the row divides by the fixed-entry
// size of the same state, so it stays comparable with the fixed row earlier
// artifacts carried. Dividing by the record's own size — the obvious
// b.SetBytes(len(buf)) — made the delta encoder look ~6× slower purely
// because its output is ~6× smaller.
func BenchmarkOffloadRecord(b *testing.B) {
	const k, d, shards = 256, 1 << 16, 8
	s := StreamState{
		Name: "zipf", K: k, Universe: d, Shards: shards,
		BudgetEps: 1, BudgetDelta: 1e-6,
		Batches: 1, Ingested: shards << 18,
	}
	for i := 0; i < shards; i++ {
		sk := mg.New(k, d)
		sk.Process(workload.Zipf(1<<18, d, 1.05, uint64(i+1)))
		s.ShardSketches = append(s.ShardSketches, sk)
	}
	fixed, err := appendStream(nil, &s, formatFixed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("delta", func(b *testing.B) {
		var buf []byte
		encode := func() {
			var err error
			if buf, err = AppendStream(buf[:0], &s); err != nil {
				b.Fatal(err)
			}
		}
		encode() // warm the buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encode()
		}
		b.StopTimer()
		b.ReportMetric(float64(len(buf)), "record_bytes")
		b.SetBytes(int64(len(fixed)))
		if allocs := testing.AllocsPerRun(20, encode); allocs > maxOffloadRecordAllocs {
			b.Fatalf("offload record encode allocates %.0f times per op, want <= %d", allocs, maxOffloadRecordAllocs)
		}
	})
}
