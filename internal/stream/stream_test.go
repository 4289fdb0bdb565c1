package stream

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRemoveAt(t *testing.T) {
	s := Stream{1, 2, 3, 4}
	got := s.RemoveAt(1)
	if !reflect.DeepEqual(got, Stream{1, 3, 4}) {
		t.Errorf("RemoveAt(1) = %v", got)
	}
	if !reflect.DeepEqual(s, Stream{1, 2, 3, 4}) {
		t.Errorf("original mutated: %v", s)
	}
	if !reflect.DeepEqual(s.RemoveAt(0), Stream{2, 3, 4}) {
		t.Error("RemoveAt(0) wrong")
	}
	if !reflect.DeepEqual(s.RemoveAt(3), Stream{1, 2, 3}) {
		t.Error("RemoveAt(last) wrong")
	}
}

func TestRemoveAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Stream{1}.RemoveAt(1)
}

func TestInsertAt(t *testing.T) {
	s := Stream{1, 3}
	if got := s.InsertAt(1, 2); !reflect.DeepEqual(got, Stream{1, 2, 3}) {
		t.Errorf("InsertAt(1,2) = %v", got)
	}
	if got := s.InsertAt(0, 9); !reflect.DeepEqual(got, Stream{9, 1, 3}) {
		t.Errorf("InsertAt(0,9) = %v", got)
	}
	if got := s.InsertAt(2, 9); !reflect.DeepEqual(got, Stream{1, 3, 9}) {
		t.Errorf("append = %v", got)
	}
}

func TestInsertRemoveInverse(t *testing.T) {
	// Property: RemoveAt(i) after InsertAt(i, x) is the identity.
	f := func(raw []uint16, pos uint8, x uint16) bool {
		s := make(Stream, len(raw))
		for i, v := range raw {
			s[i] = Item(v) + 1
		}
		i := 0
		if len(s) > 0 {
			i = int(pos) % (len(s) + 1)
		}
		return reflect.DeepEqual(s.InsertAt(i, Item(x)+1).RemoveAt(i), s) ||
			len(s) == 0 && len(s.InsertAt(0, Item(x)+1).RemoveAt(0)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Stream{1, 2}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Error("Clone shares backing array")
	}

	ss := SetStream{{1, 2}, {3}}
	cc := ss.Clone()
	cc[0][0] = 99
	if ss[0][0] != 1 {
		t.Error("SetStream.Clone shares inner slices")
	}
}

func TestSetStreamRemoveAt(t *testing.T) {
	ss := SetStream{{1}, {2, 3}, {4}}
	got := ss.RemoveAt(1)
	want := SetStream{{1}, {4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RemoveAt = %v", got)
	}
	// Mutating the result must not touch the original.
	got[0][0] = 77
	if ss[0][0] != 1 {
		t.Error("RemoveAt result aliases original")
	}
}

func TestTotalLenAndMaxSetSize(t *testing.T) {
	ss := SetStream{{1, 2, 3}, {4}, {5, 6}}
	if ss.TotalLen() != 6 {
		t.Errorf("TotalLen = %d", ss.TotalLen())
	}
	if ss.MaxSetSize() != 3 {
		t.Errorf("MaxSetSize = %d", ss.MaxSetSize())
	}
	if (SetStream{}).MaxSetSize() != 0 {
		t.Error("empty MaxSetSize != 0")
	}
}

func TestValidate(t *testing.T) {
	if err := (SetStream{{1, 2}, {3}}).Validate(2); err != nil {
		t.Errorf("valid stream rejected: %v", err)
	}
	if err := (SetStream{{}}).Validate(0); err == nil {
		t.Error("empty set accepted")
	}
	if err := (SetStream{{1, 1}}).Validate(0); err == nil {
		t.Error("duplicate accepted")
	}
	if err := (SetStream{{1, 2, 3}}).Validate(2); err == nil {
		t.Error("oversized set accepted")
	}
	if err := (SetStream{{1, 2, 3}}).Validate(0); err != nil {
		t.Errorf("maxM<=0 should disable the size check: %v", err)
	}
}

func TestFlattenOrder(t *testing.T) {
	ss := SetStream{{3, 1, 2}, {5, 4}}
	got := ss.Flatten()
	want := Stream{1, 2, 3, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Flatten = %v want %v", got, want)
	}
	// Flatten must not reorder the caller's sets.
	if !reflect.DeepEqual(ss[0], []Item{3, 1, 2}) {
		t.Error("Flatten mutated input")
	}
}

func TestSingletonsRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		s := make(Stream, len(raw))
		for i, v := range raw {
			s[i] = Item(v) + 1
		}
		ss := Singletons(s)
		if ss.TotalLen() != len(s) || (len(s) > 0 && ss.MaxSetSize() != 1) {
			return false
		}
		return reflect.DeepEqual(ss.Flatten(), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a != 1 || b != 2 {
		t.Errorf("Intern ids = %d, %d", a, b)
	}
	if d.Intern("alpha") != a {
		t.Error("re-Intern changed id")
	}
	if got, ok := d.Lookup("beta"); !ok || got != b {
		t.Error("Lookup failed")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup invented an entry")
	}
	if d.Name(a) != "alpha" || d.Name(99) != "" || d.Name(0) != "" {
		t.Error("Name mapping wrong")
	}
	if d.Size() != 2 {
		t.Errorf("Size = %d", d.Size())
	}
}

func TestDictionaryFreeze(t *testing.T) {
	d := NewDictionary()
	d.Intern("a")
	d.Freeze()
	if d.Intern("a") != 1 {
		t.Error("frozen dictionary must still resolve known names")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic interning a new name after Freeze")
		}
	}()
	d.Intern("b")
}

func TestNeighborPairLengths(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(50)
		s := make(Stream, n)
		for i := range s {
			s[i] = Item(rng.IntN(10) + 1)
		}
		i := rng.IntN(n)
		nb := s.RemoveAt(i)
		if len(nb) != n-1 {
			t.Fatalf("neighbor length %d want %d", len(nb), n-1)
		}
	}
}

// MaxSetSize returns the largest user contribution m = max |S_i|.
func (s SetStream) MaxSetSize() int {
	m := 0
	for _, set := range s {
		if len(set) > m {
			m = len(set)
		}
	}
	return m
}

// Singletons lifts an element stream into the set-stream model, one
// singleton set per element, so that element streams are the special case
// |S_i| = 1 exactly as in Section 3.
func Singletons(s Stream) SetStream {
	out := make(SetStream, len(s))
	for i, x := range s {
		out[i] = []Item{x}
	}
	return out
}
