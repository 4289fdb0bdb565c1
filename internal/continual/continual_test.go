package continual

import (
	"reflect"
	"testing"

	"dpmg/internal/core"
	"dpmg/internal/hist"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func opts(strategy Strategy, T int) Options {
	return Options{
		K: 64, Universe: 1000, Epochs: T,
		Eps: 4, Delta: 1e-5, Strategy: strategy, Seed: 7,
	}
}

func TestNewMonitorValidation(t *testing.T) {
	bad := []Options{
		{K: 0, Universe: 10, Epochs: 1, Eps: 1, Delta: 1e-6},
		{K: 4, Universe: 0, Epochs: 1, Eps: 1, Delta: 1e-6},
		{K: 4, Universe: 10, Epochs: 0, Eps: 1, Delta: 1e-6},
		{K: 4, Universe: 10, Epochs: 1, Eps: 0, Delta: 1e-6},
		{K: 4, Universe: 10, Epochs: 1, Eps: 1, Delta: 0},
		{K: 4, Universe: 10, Epochs: 1, Eps: 1, Delta: 1e-6, Strategy: Strategy(9)},
	}
	for i, o := range bad {
		if _, err := NewMonitor(o); err == nil {
			t.Errorf("options %d accepted: %+v", i, o)
		}
	}
}

func runEpochs(t *testing.T, m *Monitor, T, perEpoch int, gen func(epoch, i int) stream.Item) []hist.Estimate {
	t.Helper()
	var snaps []hist.Estimate
	for e := 0; e < T; e++ {
		for i := 0; i < perEpoch; i++ {
			m.Update(gen(e, i))
		}
		snap, err := m.EndEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		snaps = append(snaps, snap)
	}
	return snaps
}

func TestUniformTracksPrefix(t *testing.T) {
	T := 8
	m, err := NewMonitor(opts(Uniform, T))
	if err != nil {
		t.Fatal(err)
	}
	// Item 1 is very heavy in every epoch; its snapshot estimate must grow
	// roughly linearly with the prefix length.
	perEpoch := 5000
	data := workload.Zipf(T*perEpoch, 1000, 1.1, 3)
	snaps := runEpochs(t, m, T, perEpoch, func(e, i int) stream.Item { return data[e*perEpoch+i] })
	prev := 0.0
	for e, snap := range snaps {
		v := snap[1]
		if v <= prev*0.8 {
			t.Fatalf("epoch %d: heavy item estimate %v did not grow (prev %v)", e, v, prev)
		}
		prev = v
	}
	if m.Epoch() != T {
		t.Fatalf("Epoch = %d", m.Epoch())
	}
	// Budget is sized for exactly T epochs.
	if _, err := m.EndEpoch(); err == nil {
		t.Fatal("epoch T+1 accepted")
	}
}

func TestDyadicTracksPrefix(t *testing.T) {
	T := 16
	m, err := NewMonitor(opts(Dyadic, T))
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := 5000
	data := workload.Zipf(T*perEpoch, 1000, 1.1, 4)
	truthSoFar := map[stream.Item]int64{}
	for e := 0; e < T; e++ {
		for i := 0; i < perEpoch; i++ {
			x := data[e*perEpoch+i]
			m.Update(x)
			truthSoFar[x]++
		}
		snap, err := m.EndEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		// The heavy item must be tracked within sketch+noise error: prefix
		// error is bounded by levels * (n_e/(k+1) + threshold) which for
		// this workload stays well under half the true count.
		v := snap[1]
		truth := float64(truthSoFar[1])
		if v < truth/2 || v > truth*1.1 {
			t.Fatalf("epoch %d: heavy estimate %v vs truth %v", e, v, truth)
		}
	}
}

func TestDyadicBeatsUniformForManyEpochs(t *testing.T) {
	// The predicted per-epoch noise of the dyadic strategy must be far
	// below uniform for large T — that is its reason to exist.
	eps, delta := 2.0, 1e-5
	// Uniform also benefits from advanced composition (sqrt(T) scaling), so
	// the dyadic polylog advantage grows slowly: strict win at T=256, a
	// 2x factor by T=4096.
	if d, u := DyadicNoisePerEpoch(eps, delta, 256), UniformNoisePerEpoch(eps, delta, 256); d >= u {
		t.Errorf("dyadic %v should beat uniform %v at T=256", d, u)
	}
	if d, u := DyadicNoisePerEpoch(eps, delta, 4096), UniformNoisePerEpoch(eps, delta, 4096); d >= u/2 {
		t.Errorf("dyadic %v should be 2x below uniform %v at T=4096", d, u)
	}
	// And for very small T uniform is competitive.
	if UniformNoisePerEpoch(eps, delta, 2) > DyadicNoisePerEpoch(eps, delta, 2)*3 {
		t.Errorf("uniform should be competitive at T=2: %v vs %v",
			UniformNoisePerEpoch(eps, delta, 2), DyadicNoisePerEpoch(eps, delta, 2))
	}
}

func TestDyadicMeasuredErrorBeatsUniform(t *testing.T) {
	// End-to-end: same stream, same total budget, compare the final-epoch
	// max error of the two strategies at T=64.
	T := 64
	perEpoch := 2000
	data := workload.Zipf(T*perEpoch, 500, 1.1, 5)
	truth := hist.Exact(data)

	run := func(s Strategy) hist.Estimate {
		o := opts(s, T)
		o.Universe = 500
		m, err := NewMonitor(o)
		if err != nil {
			t.Fatal(err)
		}
		var last hist.Estimate
		for e := 0; e < T; e++ {
			for i := 0; i < perEpoch; i++ {
				m.Update(data[e*perEpoch+i])
			}
			last, err = m.EndEpoch()
			if err != nil {
				t.Fatal(err)
			}
		}
		return last
	}
	errU := hist.MaxError(run(Uniform), truth)
	errD := hist.MaxError(run(Dyadic), truth)
	if errD >= errU {
		t.Errorf("dyadic final error %v should beat uniform %v at T=%d", errD, errU, T)
	}
}

func TestDyadicSlotInvariant(t *testing.T) {
	// After epoch t, the set of non-nil slots must match the binary
	// representation of t.
	T := 13
	o := opts(Dyadic, T)
	m, err := NewMonitor(o)
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= T; e++ {
		m.Update(stream.Item(1 + e%5))
		if _, err := m.EndEpoch(); err != nil {
			t.Fatal(err)
		}
		for j := range m.slots {
			wantSet := e>>uint(j)&1 == 1
			if (m.slots[j] != nil) != wantSet {
				t.Fatalf("epoch %d: slot %d presence %v, want %v", e, j, m.slots[j] != nil, wantSet)
			}
		}
	}
}

func TestPerEpochEpsSanity(t *testing.T) {
	mU, err := NewMonitor(opts(Uniform, 16))
	if err != nil {
		t.Fatal(err)
	}
	mD, err := NewMonitor(opts(Dyadic, 16))
	if err != nil {
		t.Fatal(err)
	}
	// Dyadic splits across 5 levels; uniform across 16 releases.
	if mD.PerEpochEps() <= mU.PerEpochEps() {
		t.Errorf("dyadic per-release eps %v should exceed uniform %v",
			mD.PerEpochEps(), mU.PerEpochEps())
	}
}

func TestUniformBudgetEnforced(t *testing.T) {
	m, err := NewMonitor(opts(Uniform, 3))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		m.Update(1)
		if _, err := m.EndEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.EndEpoch(); err == nil {
		t.Fatal("4th epoch accepted against 3-epoch budget")
	}
}

// TestEndEpochFlatMatchesMap is the differential harness for the flat
// per-epoch release port: two monitors with identical options and seed are
// fed the same stream, one releasing through the default flat path
// (mg.AppendAll → core.ReleaseColumns) and one through a test-local copy of
// the map-based loop it replaced. Every epoch snapshot must be bit-identical under
// both strategies — same counters, same ascending release order, same
// number of draws per key, hence the same seed → noise mapping.
func TestEndEpochFlatMatchesMap(t *testing.T) {
	for _, strategy := range []Strategy{Uniform, Dyadic} {
		name := "uniform"
		if strategy == Dyadic {
			name = "dyadic"
		}
		t.Run(name, func(t *testing.T) {
			const T = 12
			flat, err := NewMonitor(opts(strategy, T))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewMonitor(opts(strategy, T))
			if err != nil {
				t.Fatal(err)
			}
			// Swap the reference monitor's release seam onto the map loop:
			// counters looked up in the Counters map along SortedKeys.
			ref.release = func(sk *mg.Sketch, p core.Params) (hist.Estimate, error) {
				counts := sk.Counters()
				eta := noise.Laplace(ref.src, 1/p.Eps)
				out := make(hist.Estimate)
				for _, x := range sk.SortedKeys() {
					noisy := float64(counts[x]) + eta + noise.Laplace(ref.src, 1/p.Eps)
					if noisy >= p.Threshold() && !sk.IsDummy(x) {
						out[x] = noisy
					}
				}
				return out, nil
			}
			str := workload.Zipf(T*3000, 1000, 1.1, 21)
			for e := 0; e < T; e++ {
				for _, x := range str[e*3000 : (e+1)*3000] {
					flat.Update(x)
					ref.Update(x)
				}
				a, err := flat.EndEpoch()
				if err != nil {
					t.Fatal(err)
				}
				b, err := ref.EndEpoch()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("epoch %d: flat and map snapshots diverge:\nflat %v\nmap  %v", e+1, a, b)
				}
			}
		})
	}
}
