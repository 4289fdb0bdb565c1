package hist

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"dpmg/internal/stream"
)

func TestExact(t *testing.T) {
	s := stream.Stream{1, 2, 1, 3, 1, 2}
	f := Exact(s)
	want := map[stream.Item]int64{1: 3, 2: 2, 3: 1}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("Exact = %v", f)
	}
}

func TestExactSets(t *testing.T) {
	ss := stream.SetStream{{1, 2}, {2, 3}, {2}}
	f := ExactSets(ss)
	want := map[stream.Item]int64{1: 1, 2: 3, 3: 1}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("ExactSets = %v", f)
	}
}

func TestExactSumsToN(t *testing.T) {
	f := func(raw []uint8) bool {
		s := make(stream.Stream, len(raw))
		for i, v := range raw {
			s[i] = stream.Item(v) + 1
		}
		var total int64
		for _, c := range Exact(s) {
			total += c
		}
		return total == int64(len(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEstimateGetDefaultsToZero(t *testing.T) {
	e := Estimate{1: 5}
	if e.Get(2) != 0 {
		t.Error("missing item should estimate 0")
	}
	if e.Get(1) != 5 {
		t.Error("present item wrong")
	}
}

func TestFromCounts(t *testing.T) {
	e := FromCounts(map[stream.Item]int64{7: 3})
	if e[7] != 3 {
		t.Errorf("FromCounts = %v", e)
	}
}

func TestMaxError(t *testing.T) {
	truth := map[stream.Item]int64{1: 10, 2: 5}
	est := Estimate{1: 8, 3: 4} // item 2 missed entirely, item 3 hallucinated
	if got := MaxError(est, truth); got != 5 {
		t.Errorf("MaxError = %v want 5", got)
	}
	if got := MaxError(Estimate{1: 10, 2: 5}, truth); got != 0 {
		t.Errorf("exact estimate MaxError = %v", got)
	}
}

func TestMaxErrorCountsSpuriousItems(t *testing.T) {
	truth := map[stream.Item]int64{1: 1}
	est := Estimate{1: 1, 99: 42}
	if got := MaxError(est, truth); got != 42 {
		t.Errorf("MaxError = %v want 42 (spurious item)", got)
	}
}

func TestMeanSquaredError(t *testing.T) {
	truth := map[stream.Item]int64{1: 3, 2: 0}
	est := Estimate{1: 1, 3: 2}
	// errors: item1: 4, item2: 0, item3: 4; support = {1,2,3}
	if got := MeanSquaredError(est, truth, 0); math.Abs(got-8.0/3) > 1e-12 {
		t.Errorf("MSE = %v want %v", got, 8.0/3)
	}
	if got := MeanSquaredError(est, truth, 8); math.Abs(got-1) > 1e-12 {
		t.Errorf("MSE universe=8: %v want 1", got)
	}
	if got := MeanSquaredError(Estimate{}, map[stream.Item]int64{}, 0); got != 0 {
		t.Errorf("empty MSE = %v", got)
	}
}

func TestTopK(t *testing.T) {
	truth := map[stream.Item]int64{1: 5, 2: 9, 3: 5, 4: 1}
	got := TopK(truth, 3)
	// 2 first, then ties 1 and 3 broken by smaller item.
	want := []stream.Item{2, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopK = %v want %v", got, want)
	}
	if got := TopK(truth, 10); len(got) != 4 {
		t.Errorf("TopK over-asked length = %d", len(got))
	}
}

func TestTopKEstimate(t *testing.T) {
	est := Estimate{1: 1.5, 2: 3.5, 3: 3.5}
	got := TopKEstimate(est, 2)
	want := []stream.Item{2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopKEstimate = %v want %v", got, want)
	}
}

func TestRecallAtK(t *testing.T) {
	truth := map[stream.Item]int64{1: 100, 2: 90, 3: 80, 4: 1}
	est := Estimate{1: 99, 2: 1, 3: 85, 4: 88}
	// true top-3 = {1,2,3}; est top-3 = {1,4,3} -> recall 2/3.
	if got := RecallAtK(est, truth, 3); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("RecallAtK = %v", got)
	}
	if got := RecallAtK(Estimate{}, map[stream.Item]int64{}, 5); got != 1 {
		t.Errorf("empty truth recall = %v", got)
	}
}

func TestDistances(t *testing.T) {
	a := map[stream.Item]int64{1: 3, 2: 1}
	b := map[stream.Item]int64{1: 1, 3: 2}
	if got := L1Distance(a, b); got != 5 {
		t.Errorf("L1 = %v want 5", got)
	}
	if got := L2Distance(a, b); math.Abs(got-3) > 1e-12 {
		t.Errorf("L2 = %v want 3", got)
	}
	if got := LInfDistance(a, b); got != 2 {
		t.Errorf("Linf = %v want 2", got)
	}
	if got := L1DistanceFloat(Estimate{1: 0.5}, Estimate{2: 0.25}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("L1 float = %v", got)
	}
}

func TestDistanceProperties(t *testing.T) {
	// Symmetry and identity, on random tables.
	f := func(ka, va, kb, vb []uint8) bool {
		a := map[stream.Item]int64{}
		if len(va) > 0 {
			for i := range ka {
				a[stream.Item(ka[i]%16)+1] = int64(va[i%len(va)] % 8)
			}
		}
		b := map[stream.Item]int64{}
		if len(vb) > 0 {
			for i := range kb {
				b[stream.Item(kb[i]%16)+1] = int64(vb[i%len(vb)] % 8)
			}
		}
		return L1Distance(a, b) == L1Distance(b, a) &&
			L1Distance(a, a) == 0 &&
			L2Distance(a, b) <= L1Distance(a, b)+1e-9 &&
			LInfDistance(a, b) <= L2Distance(a, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// L1DistanceFloat is L1Distance over released (float-valued) tables.
func L1DistanceFloat(a, b Estimate) float64 {
	var sum float64
	for x, va := range a {
		sum += math.Abs(va - b[x])
	}
	for x, vb := range b {
		if _, ok := a[x]; !ok {
			sum += math.Abs(vb)
		}
	}
	return sum
}

// MeanSquaredError returns the average of (est(x)-f(x))^2 over the union of
// supports. Pass universe > 0 to average over the whole universe [d] instead
// (elements outside both supports contribute 0 error either way, but change
// the denominator).
func MeanSquaredError(est Estimate, truth map[stream.Item]int64, universe int) float64 {
	var sum float64
	support := make(map[stream.Item]struct{}, len(truth)+len(est))
	for x, f := range truth {
		d := est[x] - float64(f)
		sum += d * d
		support[x] = struct{}{}
	}
	for x, v := range est {
		if _, ok := truth[x]; ok {
			continue
		}
		sum += v * v
		support[x] = struct{}{}
	}
	n := len(support)
	if universe > 0 {
		n = universe
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
