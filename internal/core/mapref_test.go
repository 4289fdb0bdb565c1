package core

import (
	"dpmg/internal/hist"
	"dpmg/internal/noise"
	"dpmg/internal/stream"
)

// The map-based release loops the column loops replaced, kept verbatim as
// test references: each looks its counters up in the Counters map while
// walking SortedKeys, and asks the sketch which keys are dummies. The
// randomized differentials compare them with the shipped loops draw for
// draw under shared seeds.

type mapSketch interface {
	Counters() map[stream.Item]int64
	SortedKeys() []stream.Item
}

type mapAlg1Sketch interface {
	mapSketch
	IsDummy(stream.Item) bool
}

func releaseMapRef(sk mapAlg1Sketch, p Params, src noise.Source) hist.Estimate {
	counts := sk.Counters()
	eta := noise.Laplace(src, 1/p.Eps)
	thresh := p.Threshold()
	out := make(hist.Estimate)
	for _, x := range sk.SortedKeys() {
		noisy := float64(counts[x]) + eta + noise.Laplace(src, 1/p.Eps)
		if noisy >= thresh && !sk.IsDummy(x) {
			out[x] = noisy
		}
	}
	return out
}

func releaseStandardMapRef(sk mapSketch, k int, p Params, src noise.Source) hist.Estimate {
	counts := sk.Counters()
	eta := noise.Laplace(src, 1/p.Eps)
	thresh := noise.StandardMGThreshold(p.Eps, p.Delta, k)
	out := make(hist.Estimate)
	for _, x := range sk.SortedKeys() {
		noisy := float64(counts[x]) + eta + noise.Laplace(src, 1/p.Eps)
		if noisy >= thresh {
			out[x] = noisy
		}
	}
	return out
}

func releaseGeometricMapRef(sk mapAlg1Sketch, p Params, src noise.Source) hist.Estimate {
	counts := sk.Counters()
	alpha := noise.GeometricAlpha(p.Eps, 1)
	eta := noise.TwoSidedGeometric(src, alpha)
	thresh := noise.GeometricThreshold(p.Eps, p.Delta)
	out := make(hist.Estimate)
	for _, x := range sk.SortedKeys() {
		noisy := counts[x] + eta + noise.TwoSidedGeometric(src, alpha)
		if float64(noisy) >= thresh && !sk.IsDummy(x) {
			out[x] = float64(noisy)
		}
	}
	return out
}
