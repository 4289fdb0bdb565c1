// Package stream defines the input model of the paper (Section 3): a totally
// ordered universe U = [d], element streams (Section 5), and user-set streams
// where each stream item is a set of up to m distinct elements (Section 8).
// It also implements the add/remove neighboring relation (Definition 3) used
// throughout the tests and the empirical sensitivity experiments.
package stream

import (
	"fmt"
	"sort"
)

// Item identifies a universe element. The universe is [d] = {1, ..., d};
// items compare by their numeric value, which supplies the total order the
// paper assumes (Section 3). Item 0 is reserved as "no item". Values above a
// sketch's configured universe size act as the dummy keys of Algorithm 1.
type Item uint64

// Stream is a finite stream of single elements, the input model of
// Sections 5-7.
type Stream []Item

// SetStream is a finite stream of user contributions, each a set of distinct
// elements, the input model of Section 8.
type SetStream [][]Item

// Clone returns a deep copy of s.
func (s Stream) Clone() Stream {
	out := make(Stream, len(s))
	copy(out, s)
	return out
}

// RemoveAt returns a copy of s with the element at index i removed. The
// result is a neighbor of s under Definition 3.
func (s Stream) RemoveAt(i int) Stream {
	if i < 0 || i >= len(s) {
		panic(fmt.Sprintf("stream: RemoveAt index %d out of range [0,%d)", i, len(s)))
	}
	out := make(Stream, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// InsertAt returns a copy of s with x inserted before index i
// (i may equal len(s) to append). The result is a neighbor of s.
func (s Stream) InsertAt(i int, x Item) Stream {
	if i < 0 || i > len(s) {
		panic(fmt.Sprintf("stream: InsertAt index %d out of range [0,%d]", i, len(s)))
	}
	out := make(Stream, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	out = append(out, s[i:]...)
	return out
}

// Clone returns a deep copy of s.
func (s SetStream) Clone() SetStream {
	out := make(SetStream, len(s))
	for i, set := range s {
		out[i] = append([]Item(nil), set...)
	}
	return out
}

// RemoveAt returns a copy of s with the user at index i removed; the result
// is a neighbor of s under the user-level relation of Section 8.
func (s SetStream) RemoveAt(i int) SetStream {
	if i < 0 || i >= len(s) {
		panic(fmt.Sprintf("stream: RemoveAt index %d out of range [0,%d)", i, len(s)))
	}
	out := make(SetStream, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out.Clone()
}

// TotalLen returns N = sum over users of |S_i|, the total number of stream
// elements (Section 8 uses N in the error bounds).
func (s SetStream) TotalLen() int {
	n := 0
	for _, set := range s {
		n += len(set)
	}
	return n
}

// Validate checks that every user set is non-empty, contains distinct
// elements none of which is the reserved item 0, and has size at most maxM
// (ignored when maxM <= 0). These are the standing assumptions of
// Section 8; rejecting item 0 here (rather than panicking downstream)
// keeps batch ingest atomic — a bad set is reported before any set in the
// batch is applied.
func (s SetStream) Validate(maxM int) error {
	for i, set := range s {
		if len(set) == 0 {
			return fmt.Errorf("stream: user %d contributes an empty set", i)
		}
		if maxM > 0 && len(set) > maxM {
			return fmt.Errorf("stream: user %d contributes %d elements, max %d", i, len(set), maxM)
		}
		seen := make(map[Item]struct{}, len(set))
		for _, x := range set {
			if x == 0 {
				return fmt.Errorf("stream: user %d contributes reserved item 0", i)
			}
			if _, dup := seen[x]; dup {
				return fmt.Errorf("stream: user %d contributes duplicate element %d", i, x)
			}
			seen[x] = struct{}{}
		}
	}
	return nil
}

// Flatten converts a user-set stream into an element stream by iterating
// over each user's elements in ascending order, the fixed order the paper
// prescribes for Ŝ in Section 8.
func (s SetStream) Flatten() Stream {
	out := make(Stream, 0, s.TotalLen())
	buf := make([]Item, 0, 16)
	for _, set := range s {
		buf = append(buf[:0], set...)
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		out = append(out, buf...)
	}
	return out
}
