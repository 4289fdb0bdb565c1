package dpmg

import (
	"bytes"
	"testing"

	"dpmg/internal/workload"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	sk := NewSketch(32, 500)
	str := workload.HeavyTail(60000, 500, 4, 0.85, 11)
	sk.UpdateBatch(str)

	var buf bytes.Buffer
	if err := sk.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSketch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if restored.N() != sk.N() || restored.K() != sk.K() {
		t.Fatalf("bookkeeping drift: N %d vs %d, K %d vs %d",
			restored.N(), sk.N(), restored.K(), sk.K())
	}
	for x := Item(1); x <= 500; x++ {
		if restored.Estimate(x) != sk.Estimate(x) {
			t.Fatalf("estimate drift at %d: %d vs %d", x, restored.Estimate(x), sk.Estimate(x))
		}
	}

	// The acceptance criterion: a restored sketch releases byte-identically
	// to the original under the same seed, for every mechanism.
	p := Params{Eps: 1, Delta: 1e-6}
	for _, mech := range []string{MechanismLaplace, MechanismGeometric, MechanismPure, MechanismGaussian} {
		h1, err := Release(sk, p, WithMechanism(mech), WithSeed(777))
		if err != nil {
			t.Fatal(err)
		}
		h2, err := Release(restored, p, WithMechanism(mech), WithSeed(777))
		if err != nil {
			t.Fatal(err)
		}
		identical(t, "restored "+mech, h1, h2)
	}
}

// TestSnapshotRestoreContinuedIngest: restoring mid-stream and continuing
// must be indistinguishable from never having paused — the whole point of
// snapshots for long-running ingest.
func TestSnapshotRestoreContinuedIngest(t *testing.T) {
	str := workload.Zipf(80000, 400, 1.1, 13)
	half := len(str) / 2

	whole := NewSketch(16, 400)
	whole.UpdateBatch(str)

	paused := NewSketch(16, 400)
	paused.UpdateBatch(str[:half])
	var buf bytes.Buffer
	if err := paused.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := RestoreSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed.UpdateBatch(str[half:])

	if resumed.N() != whole.N() {
		t.Fatalf("N drift: %d vs %d", resumed.N(), whole.N())
	}
	for x := Item(1); x <= 400; x++ {
		if resumed.Estimate(x) != whole.Estimate(x) {
			t.Fatalf("estimate drift at %d after resume: %d vs %d",
				x, resumed.Estimate(x), whole.Estimate(x))
		}
	}
	h1, err := Release(whole, Params{Eps: 1, Delta: 1e-6}, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Release(resumed, Params{Eps: 1, Delta: 1e-6}, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	identical(t, "resumed release", h1, h2)
}

// TestSnapshotCanonical: snapshot → restore → snapshot is byte-identical
// (the wire format orders entries canonically, so equal states serialize to
// equal bytes).
func TestSnapshotCanonical(t *testing.T) {
	sk := NewSketch(8, 100)
	sk.UpdateBatch(workload.Zipf(5000, 100, 1.3, 17))
	var a, b bytes.Buffer
	if err := sk.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSketch(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot not canonical across restore")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		[]byte("not a snapshot"),
		{'D', 'P', 'M', 'G', 99}, // bad version
	} {
		if _, err := RestoreSketch(bytes.NewReader(raw)); err == nil {
			t.Errorf("garbage %q restored", raw)
		}
	}
	// A summary snapshot is not a sketch snapshot: kind must be checked.
	sk := NewSketch(8, 100)
	sk.Update(1)
	sum, err := sk.Summary()
	if err != nil {
		t.Fatal(err)
	}
	_ = sum // summaries have their own wire kind; cross-decoding must fail
	var buf bytes.Buffer
	if err := sk.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate the body: must fail loudly.
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := RestoreSketch(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot restored")
	}
}
