// Package qos provides the lock-free admission primitives behind the
// manager's per-stream quality-of-service ceilings: a token bucket for
// ingest rate (items per second) and a gate for in-flight release
// concurrency. Both are designed for the dpmg.Stream hot paths — admission
// is one atomic compare-and-swap loop with no mutex, no time.Timer, and no
// allocation, so a stream with QoS enabled ingests exactly as it does
// without it (plus one CAS), and streams never share admission state.
//
// # The token bucket
//
// Bucket implements the Generic Cell Rate Algorithm (GCRA), the virtual
// scheduling form of a token bucket: the entire state is one int64 — the
// theoretical arrival time (TAT), the instant at which the bucket's debt
// is fully paid off. Admitting n items advances the TAT by n×(1/rate); a
// request is refused when admitting it would push the TAT more than one
// burst window past the caller's clock. Because the state is a single
// word, admission is a load + CAS (retried only under contention), which
// keeps the zero-allocation ingest path property the merge/release tier
// established.
//
// Callers supply the clock (nanoseconds, monotone). The bucket never reads
// time itself — the dpmg.Stream hot path already reads the clock once per
// batch for its idle-eviction access stamp and hands the same value here,
// and tests drive admission deterministically with synthetic clocks.
package qos

import (
	"math"
	"sync/atomic"
)

// maxDebt caps TAT advances and burst windows so the float products in
// Allow and NewBucket can never overflow int64 (which would flip the
// limiter into permanent-refuse or permanent-admit): half the int64 range
// leaves headroom for base + inc at any clock value. Burst and batch
// parameters are caller-supplied (the server's stream-create body), so the
// clamp is a hard invariant, not an optimization.
const maxDebt = math.MaxInt64 / 2

// clampDebt converts a nanosecond quantity computed in float64 to int64,
// saturating at maxDebt.
func clampDebt(ns float64) int64 {
	if ns >= maxDebt {
		return maxDebt
	}
	return int64(ns)
}

// Bucket is a lock-free token bucket admitting `rate` items per second
// with a tolerance of `burst` items. A nil *Bucket admits everything (the
// "no ceiling" configuration), so callers need no branch beyond the method
// call. All methods are safe for concurrent use.
type Bucket struct {
	tat      atomic.Int64 // theoretical arrival time, ns
	interval float64      // ns of TAT advance per item (1e9 / rate)
	window   int64        // burst tolerance, ns (burst × interval)
}

// NewBucket returns a bucket admitting rate items/second with a burst
// tolerance of burst items. A single request for more than burst items can
// never be admitted — size burst to at least the largest batch the caller
// accepts. Returns nil (admit-everything) when rate <= 0. Oversized burst
// windows saturate rather than overflow: a huge burst behaves as "any
// single request is admitted, long-run rate still enforced".
func NewBucket(rate float64, burst int) *Bucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	interval := 1e9 / rate
	return &Bucket{interval: interval, window: clampDebt(float64(burst) * interval)}
}

// Allow reports whether n items may pass at time now (nanoseconds on the
// caller's clock), atomically consuming them if so. Refusals consume
// nothing. n <= 0 is always admitted and consumes nothing.
func (b *Bucket) Allow(n int, now int64) bool {
	if b == nil || n <= 0 {
		return true
	}
	inc := clampDebt(float64(n) * b.interval)
	for {
		tat := b.tat.Load()
		base := tat
		if now > base {
			base = now // idle time refills the bucket, but never banks beyond full
		}
		next := base + inc
		if next-now > b.window || next < base { // refuse on window or overflow
			return false
		}
		if b.tat.CompareAndSwap(tat, next) {
			return true
		}
	}
}

// Refund returns n previously admitted items to the bucket, undoing the
// TAT advance of a matching Allow. Callers pair it with an Allow whose
// operation could not proceed after admission (the manager's ingest path
// refunds when a fault-in fails), so a tenant whose stream is broken is not
// also spuriously rate-limited on retries. Refund must only be called to
// undo an actual admission: each call walks the TAT back by exactly n
// items' worth, and unpaired refunds would bank tokens that were never
// spent. n <= 0 is a no-op.
func (b *Bucket) Refund(n int) {
	if b == nil || n <= 0 {
		return
	}
	inc := clampDebt(float64(n) * b.interval)
	for {
		tat := b.tat.Load()
		if b.tat.CompareAndSwap(tat, tat-inc) {
			return
		}
	}
}

// Gate bounds the number of concurrently admitted operations (the
// manager's in-flight release ceiling). A nil *Gate admits everything.
// All methods are safe for concurrent use.
type Gate struct {
	inflight atomic.Int64
	max      int64
}

// NewGate returns a gate admitting at most max concurrent operations.
// Returns nil (admit-everything) when max <= 0.
func NewGate(max int) *Gate {
	if max <= 0 {
		return nil
	}
	return &Gate{max: int64(max)}
}

// Enter tries to admit one operation, reporting whether it was admitted.
// Every admitted operation must be paired with exactly one Leave.
func (g *Gate) Enter() bool {
	if g == nil {
		return true
	}
	for {
		cur := g.inflight.Load()
		if cur >= g.max {
			return false
		}
		if g.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Leave releases one admitted operation.
func (g *Gate) Leave() {
	if g == nil {
		return
	}
	if g.inflight.Add(-1) < 0 {
		panic("qos: Leave without matching Enter")
	}
}
