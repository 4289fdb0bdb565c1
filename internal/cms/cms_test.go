package cms

import (
	"math"
	"testing"
	"testing/quick"

	"dpmg/internal/hist"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

func TestNeverUnderestimates(t *testing.T) {
	s := New(4, 256, 1)
	data := workload.Zipf(50000, 5000, 1.1, 2)
	for _, x := range data {
		s.Update(x)
	}
	f := hist.Exact(data)
	for x, c := range f {
		if est := s.Estimate(x); est < c {
			t.Fatalf("item %d: estimate %d < true %d", x, est, c)
		}
	}
}

func TestErrorBound(t *testing.T) {
	// Standard guarantee: overcount <= e/width * n with prob 1-e^-depth per
	// item; check no item exceeds a slightly looser 2e/width * n.
	s := New(5, 512, 3)
	n := 100000
	data := workload.Zipf(n, 2000, 1.2, 4)
	for _, x := range data {
		s.Update(x)
	}
	f := hist.Exact(data)
	bound := int64(2 * 2.72 * float64(n) / 512)
	for x, c := range f {
		if over := s.Estimate(x) - c; over > bound {
			t.Errorf("item %d overcount %d > bound %d", x, over, bound)
		}
	}
}

func TestConservativeTighter(t *testing.T) {
	plain := New(4, 128, 9)
	cons := New(4, 128, 9)
	cons.SetConservative(true)
	data := workload.Zipf(30000, 3000, 1.1, 5)
	for _, x := range data {
		plain.Update(x)
		cons.Update(x)
	}
	f := hist.Exact(data)
	var plainErr, consErr int64
	for x, c := range f {
		plainErr += plain.Estimate(x) - c
		consErr += cons.Estimate(x) - c
		if cons.Estimate(x) < c {
			t.Fatalf("conservative underestimated item %d", x)
		}
	}
	if consErr > plainErr {
		t.Errorf("conservative total overcount %d > plain %d", consErr, plainErr)
	}
}

func TestMerge(t *testing.T) {
	a := New(4, 256, 7)
	b := New(4, 256, 7)
	whole := New(4, 256, 7)
	d1 := workload.Zipf(20000, 1000, 1.1, 11)
	d2 := workload.Zipf(20000, 1000, 1.1, 12)
	for _, x := range d1 {
		a.Update(x)
		whole.Update(x)
	}
	for _, x := range d2 {
		b.Update(x)
		whole.Update(x)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.N() != whole.N() {
		t.Fatalf("merged N %d want %d", a.N(), whole.N())
	}
	for x := stream.Item(1); x <= 1000; x++ {
		if a.Estimate(x) != whole.Estimate(x) {
			t.Fatalf("merge not equivalent at item %d", x)
		}
	}
}

func TestMergeErrors(t *testing.T) {
	a := New(4, 256, 7)
	if err := a.Merge(New(3, 256, 7)); err == nil {
		t.Error("depth mismatch accepted")
	}
	if err := a.Merge(New(4, 128, 7)); err == nil {
		t.Error("width mismatch accepted")
	}
	if err := a.Merge(New(4, 256, 8)); err == nil {
		t.Error("seed mismatch accepted")
	}
	c := New(4, 256, 7)
	c.SetConservative(true)
	if err := a.Merge(c); err == nil {
		t.Error("conservative merge accepted")
	}
}

func TestAddWeighted(t *testing.T) {
	s := New(3, 64, 1)
	s.Add(5, 10)
	if s.Estimate(5) < 10 {
		t.Errorf("estimate %d < 10", s.Estimate(5))
	}
	if s.N() != 10 {
		t.Errorf("N = %d", s.N())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight accepted")
		}
	}()
	s.Add(5, -1)
}

func TestNewForError(t *testing.T) {
	s := NewForError(0.01, 0.001, 1)
	if s.Width() < 270 || s.Width() > 275 {
		t.Errorf("width = %d, want ~272", s.Width())
	}
	if s.Depth() < 7 || s.Depth() > 8 {
		t.Errorf("depth = %d, want ~7", s.Depth())
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 10, 1) },
		func() { New(10, 0, 1) },
		func() { NewForError(0, 0.1, 1) },
		func() { NewForError(0.1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDeterministicHashing(t *testing.T) {
	f := func(raw []uint16) bool {
		a := New(3, 128, 42)
		b := New(3, 128, 42)
		for _, v := range raw {
			a.Update(stream.Item(v) + 1)
			b.Update(stream.Item(v) + 1)
		}
		for _, v := range raw {
			if a.Estimate(stream.Item(v)+1) != b.Estimate(stream.Item(v)+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowCopy(t *testing.T) {
	s := New(2, 8, 1)
	s.Update(3)
	row := s.Row(0)
	for i := range row {
		row[i] = 999
	}
	if s.Estimate(3) < 1 || s.Estimate(3) > 1 {
		t.Error("Row returned a live reference")
	}
}

// NewForError returns a sketch sized for additive error at most errFrac*n
// with failure probability failProb, using the standard width = ceil(e/eps),
// depth = ceil(ln(1/failProb)) sizing.
func NewForError(errFrac, failProb float64, seed uint64) *Sketch {
	if errFrac <= 0 || errFrac >= 1 || failProb <= 0 || failProb >= 1 {
		panic("cms: NewForError parameters must be in (0,1)")
	}
	width := int(math.Ceil(math.E / errFrac))
	depth := int(math.Ceil(math.Log(1 / failProb)))
	if depth < 1 {
		depth = 1
	}
	return New(depth, width, seed)
}

// Row exposes a copy of row i for the private release path (per-cell noise).
func (s *Sketch) Row(i int) []int64 {
	out := make([]int64, s.width)
	copy(out, s.rows[i])
	return out
}

// SetConservative enables conservative update (only raise the minimal
// cells), which tightens estimates at the cost of losing mergeability.
func (s *Sketch) SetConservative(on bool) { s.conservative = on }
