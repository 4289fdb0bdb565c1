package experiment

import (
	"math"

	"dpmg/internal/core"
	"dpmg/internal/gshm"
	"dpmg/internal/hist"
	"dpmg/internal/merge"
	"dpmg/internal/mg"
	"dpmg/internal/noise"
	"dpmg/internal/pamg"
	"dpmg/internal/puredp"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// E6Merging reproduces the Section 7 comparison across aggregation settings
// as the number of merged streams l grows:
//
//   - untrusted aggregator (Chan et al.'s setting, with PMG as the
//     subroutine): local releases merged after noising — error grows
//     linearly in l on the worst-case input;
//   - trusted aggregator with the Section 6 reduction: one noising of the
//     exact aggregate — error independent of l (but unbounded memory);
//   - trusted aggregator with bounded memory: Agarwal merges plus one
//     k-scaled noising, valid by Corollary 18 — error independent of l but
//     paying the k/eps noise, so it beats the untrusted pipeline once
//     l exceeds ~k.
func E6Merging(c Config) *Table {
	k := 16
	d := 64
	ls := []int{1, 4, 16, 64, 256}
	trials := 5
	if c.Quick {
		ls = []int{1, 8, 64}
		trials = 2
	}
	p := defaultParams
	t := &Table{
		ID:      "E6",
		Title:   "Victim-item error vs number of merged streams l (k=16, worst-case threshold input)",
		Columns: []string{"l", "untrusted-pmg", "trusted-reduced", "trusted-bounded(k/eps)", "untrusted/bounded"},
		Notes: []string{
			"untrusted loses ~threshold per merge (linear in l); trusted-reduced pays the per-stream reduction offset",
			"trusted-bounded pays a fixed k-scaled threshold once, so untrusted/bounded crosses 1 at l ≈ k — the paper's crossover",
		},
	}
	below := int(p.Threshold()) - 3 // victim count per stream, just below the threshold
	for _, l := range ls {
		streams := make([]stream.Stream, l)
		var all stream.Stream
		for i := range streams {
			var s stream.Stream
			for j := 0; j < below; j++ {
				s = append(s, 1)
			}
			// Light background traffic over 8 items keeps the sketches
			// non-trivial while staying under k distinct items, so merging
			// itself stays exact and the privacy error is isolated.
			for j := 0; j < 100; j++ {
				s = append(s, stream.Item(2+j%8))
			}
			streams[i] = s
			all = append(all, s...)
		}
		f := hist.Exact(all)
		victim := stream.Item(1)

		var eUntrusted, eTrustedRed, eTrustedBnd float64
		for trial := 0; trial < trials; trial++ {
			seed := c.Seed + uint64(6000*l+trial)

			relU, err := merge.UntrustedAggregate(streams, k, uint64(d), p, noise.NewSource(seed))
			if err != nil {
				panic(err)
			}
			eUntrusted += math.Abs(float64(f[victim]) - relU[victim])

			var reduced []map[stream.Item]float64
			var summaries []*merge.Summary
			for _, s := range streams {
				sk := mg.New(k, uint64(d))
				sk.Process(s)
				reduced = append(reduced, puredp.Reduce(sk).Counts)
				sum, err := merge.FromCounters(k, uint64(d), sk.Counters())
				if err != nil {
					panic(err)
				}
				summaries = append(summaries, sum)
			}
			relT, err := merge.TrustedAggregateLaplace(reduced, p.Eps, p.Delta, noise.NewSource(seed))
			if err != nil {
				panic(err)
			}
			eTrustedRed += math.Abs(float64(f[victim]) - relT[victim])

			relB, err := merge.TrustedAggregateBounded(summaries, p.Eps, p.Delta, noise.NewSource(seed))
			if err != nil {
				panic(err)
			}
			eTrustedBnd += math.Abs(float64(f[victim]) - relB[victim])
		}
		ft := float64(trials)
		eUntrusted /= ft
		eTrustedRed /= ft
		eTrustedBnd /= ft
		ratio := math.Inf(1)
		if eTrustedBnd > 0 {
			ratio = eUntrusted / eTrustedBnd
		}
		t.AddRow(l, eUntrusted, eTrustedRed, eTrustedBnd, ratio)
	}
	return t
}

// E7UserLevel reproduces the Section 8 comparison (Theorem 2 / Theorem 30):
// releasing user-set streams via flattening + group-privacy-scaled PMG pays
// noise linear in m, while PAMG + the Gaussian Sparse Histogram Mechanism
// pays sqrt(k)·log noise independent of m.
func E7UserLevel(c Config) *Table {
	k := 128
	d := 2000
	users := 20000
	ms := []int{1, 2, 4, 8, 16, 32}
	trials := 3
	if c.Quick {
		k, users, trials = 64, 4000, 2
		ms = []int{1, 4, 8}
	}
	p := core.Params{Eps: 1, Delta: 1e-6}
	t := &Table{
		ID:      "E7",
		Title:   "User-level max error vs set size m (k=128, eps=1, delta=1e-6)",
		Columns: []string{"m", "flatten+pmg(eps/m)", "pamg+gshm", "pmg-noise-scale(m/eps)", "gshm-tau"},
		Notes: []string{
			"the pmg column grows with m (group privacy scales eps by 1/m); pamg+gshm stays flat",
		},
	}
	for _, m := range ms {
		ss := workload.UserSets(users, d, m, 1.1, c.Seed+uint64(70+m))
		f := hist.ExactSets(ss)

		cfg, err := gshm.Calibrate(p.Eps, p.Delta, k)
		if err != nil {
			panic(err)
		}
		pa := pamg.New(k)
		pa.Process(ss)
		keys, vals := pa.AppendAll(nil, nil)
		var ePMG, eGSHM float64
		for trial := 0; trial < trials; trial++ {
			seed := c.Seed + uint64(7000*m+trial)
			relP, err := core.ReleaseUserLevel(ss, k, uint64(d), m, p, noise.NewSource(seed))
			if err != nil {
				panic(err)
			}
			ePMG += hist.MaxError(relP, f)
			eGSHM += hist.MaxError(gshm.ReleaseFlat(keys, vals, cfg, noise.NewSource(seed)), f)
		}
		scaled, _ := core.UserLevelParams(p, m)
		t.AddRow(m, ePMG/float64(trials), eGSHM/float64(trials), 1/scaled.Eps, cfg.Tau)
	}
	return t
}
