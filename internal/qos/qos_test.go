package qos

import (
	"sync"
	"testing"
)

const second = int64(1e9)

func TestBucketBurstThenRate(t *testing.T) {
	b := NewBucket(1000, 100) // 1000 items/s, burst 100
	now := int64(0)
	if !b.Allow(100, now) {
		t.Fatal("full burst refused")
	}
	if b.Allow(1, now) {
		t.Fatal("item beyond burst admitted")
	}
	// After 10ms, 10 tokens (1000/s × 0.01s) have refilled.
	now += 10 * second / 1000
	if !b.Allow(10, now) {
		t.Fatal("refilled tokens refused")
	}
	if b.Allow(1, now) {
		t.Fatal("over-refill admitted")
	}
	// A long idle period refills to full burst, never beyond.
	now += 3600 * second
	if !b.Allow(100, now) {
		t.Fatal("full burst after idle refused")
	}
	if b.Allow(1, now) {
		t.Fatal("banked beyond burst")
	}
}

func TestBucketOversizeRequest(t *testing.T) {
	b := NewBucket(1e6, 10)
	if b.Allow(11, 0) {
		t.Fatal("request larger than burst admitted")
	}
	// The refusal consumed nothing.
	if !b.Allow(10, 0) {
		t.Fatal("burst refused after refused oversize request")
	}
}

func TestBucketUnlimited(t *testing.T) {
	var b *Bucket // nil = no ceiling
	if !b.Allow(1<<40, 0) {
		t.Fatal("nil bucket refused")
	}
	if NewBucket(0, 5) != nil || NewBucket(-1, 5) != nil {
		t.Fatal("rate <= 0 should build the nil (unlimited) bucket")
	}
	b2 := NewBucket(100, 10)
	if !b2.Allow(0, 0) || !b2.Allow(-3, 0) {
		t.Fatal("n <= 0 must always be admitted")
	}
	if !b2.Allow(10, 0) {
		t.Fatal("n <= 0 consumed tokens")
	}
}

// TestBucketConcurrentExactness: under concurrent admission at a fixed
// clock, exactly `burst` items are admitted in total — the CAS loop never
// double-spends or loses tokens.
func TestBucketConcurrentExactness(t *testing.T) {
	const burst = 1024
	b := NewBucket(1, burst) // refill is negligible at a fixed clock
	var wg sync.WaitGroup
	admitted := make([]int, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < burst; i++ {
				if b.Allow(1, 0) {
					admitted[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range admitted {
		total += n
	}
	if total != burst {
		t.Fatalf("admitted %d items, want exactly %d", total, burst)
	}
}

// TestBucketSaturatesNotOverflows: burst and n are caller-supplied (the
// server's stream-create body), so pathological values must saturate the
// debt arithmetic, never wrap int64 into permanent-refuse or
// permanent-admit.
func TestBucketSaturatesNotOverflows(t *testing.T) {
	// Huge burst × tiny rate: window saturates; normal traffic still flows.
	b := NewBucket(1, 1<<40)
	if !b.Allow(1, 0) {
		t.Fatal("huge-burst bucket refused a single item")
	}
	if !b.Allow(1000, second) {
		t.Fatal("huge-burst bucket refused a modest batch")
	}
	// Huge n × tiny rate: increment saturates and the request is refused
	// (it cannot fit any finite window) without poisoning the TAT.
	b2 := NewBucket(0.001, 10)
	if b2.Allow(1<<50, 0) {
		t.Fatal("astronomically large batch admitted")
	}
	if !b2.Allow(1, 0) {
		t.Fatal("bucket poisoned by refused oversize batch")
	}
}

func TestGate(t *testing.T) {
	g := NewGate(2)
	if !g.Enter() || !g.Enter() {
		t.Fatal("gate refused within limit")
	}
	if g.Enter() {
		t.Fatal("gate admitted beyond limit")
	}
	g.Leave()
	if !g.Enter() {
		t.Fatal("gate refused after Leave")
	}
	if got := g.Inflight(); got != 2 {
		t.Fatalf("Inflight = %d, want 2", got)
	}
	var nilGate *Gate
	if !nilGate.Enter() {
		t.Fatal("nil gate refused")
	}
	nilGate.Leave() // must not panic
	if NewGate(0) != nil {
		t.Fatal("max <= 0 should build the nil (unlimited) gate")
	}
}

func TestGateConcurrentNeverExceeds(t *testing.T) {
	const limit = 4
	g := NewGate(limit)
	var wg sync.WaitGroup
	var peak, cur, mu = 0, 0, sync.Mutex{}
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !g.Enter() {
					continue
				}
				mu.Lock()
				cur++
				if cur > peak {
					peak = cur
				}
				mu.Unlock()
				mu.Lock()
				cur--
				mu.Unlock()
				g.Leave()
			}
		}()
	}
	wg.Wait()
	if peak > limit {
		t.Fatalf("observed %d concurrent admissions, limit %d", peak, limit)
	}
	if g.Inflight() != 0 {
		t.Fatalf("inflight %d after quiesce", g.Inflight())
	}
}

func TestBucketRefund(t *testing.T) {
	b := NewBucket(1, 1)
	if !b.Allow(1, 0) {
		t.Fatal("fresh bucket refused")
	}
	if b.Allow(1, 0) {
		t.Fatal("drained bucket admitted")
	}
	b.Refund(1)
	if !b.Allow(1, 0) {
		t.Fatal("refunded token not honored")
	}
	b.Refund(0)
	b.Refund(-2)
	if b.Allow(1, 0) {
		t.Fatal("n <= 0 refunds minted tokens")
	}
	var nb *Bucket
	nb.Refund(3) // nil bucket: no-op, must not panic
	if !nb.Allow(5, 0) {
		t.Fatal("nil bucket refused")
	}
	// A refund after idle refill does not bank tokens beyond full: the
	// walked-back TAT sits in the past, where Allow clamps base to now.
	const second = int64(1e9)
	b2 := NewBucket(1, 1)
	if !b2.Allow(1, 0) {
		t.Fatal("fresh bucket refused")
	}
	b2.Refund(1)
	if !b2.Allow(1, 10*second) {
		t.Fatal("idle bucket refused")
	}
	if b2.Allow(1, 10*second) {
		t.Fatal("refund banked tokens beyond the burst")
	}
}

// Inflight returns the number of currently admitted operations.
func (g *Gate) Inflight() int {
	if g == nil {
		return 0
	}
	return int(g.inflight.Load())
}
