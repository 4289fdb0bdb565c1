// Package cms implements the Count-Min sketch (Cormode & Muthukrishnan),
// the substrate for the frequency-oracle baseline the paper discusses in
// Sections 1 and 4: private heavy-hitter recovery via a noisy frequency
// oracle ([18, Appendix D] and Bassily et al. [5]) which needs noise of
// magnitude Theta(log(d)/eps) and therefore loses to the paper's mechanism.
//
// The implementation hashes with a family of pairwise-independent
// multiply-shift functions seeded deterministically, so sketches built with
// the same parameters and seed are mergeable and reproducible.
package cms

import (
	"fmt"
	"math"

	"dpmg/internal/stream"
)

// Sketch is a Count-Min sketch with depth rows and width columns.
// Estimates overcount by at most 2n/width with probability 1-2^-depth.
type Sketch struct {
	depth, width int
	rows         [][]int64
	seeds        []uint64
	n            int64
	conservative bool
}

// New returns a Count-Min sketch with the given depth and width.
// seed controls the hash family.
func New(depth, width int, seed uint64) *Sketch {
	if depth <= 0 || width <= 0 {
		panic("cms: depth and width must be positive")
	}
	s := &Sketch{depth: depth, width: width}
	s.rows = make([][]int64, depth)
	s.seeds = make([]uint64, depth)
	x := seed | 1
	for i := range s.rows {
		s.rows[i] = make([]int64, width)
		// splitmix64 step to derive per-row seeds.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.seeds[i] = z ^ (z >> 31)
	}
	return s
}

func (s *Sketch) cell(row int, x stream.Item) int {
	h := (uint64(x) + 0x9e3779b97f4a7c15) * (s.seeds[row] | 1)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h % uint64(s.width))
}

// Update adds one occurrence of x.
func (s *Sketch) Update(x stream.Item) { s.Add(x, 1) }

// Add adds w occurrences of x. w must be non-negative.
func (s *Sketch) Add(x stream.Item, w int64) {
	if w < 0 {
		panic("cms: negative weight")
	}
	s.n += w
	if s.conservative {
		est := s.Estimate(x)
		for i := 0; i < s.depth; i++ {
			c := &s.rows[i][s.cell(i, x)]
			if *c < est+w {
				*c = est + w
			}
		}
		return
	}
	for i := 0; i < s.depth; i++ {
		s.rows[i][s.cell(i, x)] += w
	}
}

// Estimate returns the point estimate for x: the minimum over rows. It never
// underestimates the true count.
func (s *Sketch) Estimate(x stream.Item) int64 {
	est := int64(math.MaxInt64)
	for i := 0; i < s.depth; i++ {
		if c := s.rows[i][s.cell(i, x)]; c < est {
			est = c
		}
	}
	return est
}

// N returns the total weight inserted.
func (s *Sketch) N() int64 { return s.n }

// Depth returns the number of rows.
func (s *Sketch) Depth() int { return s.depth }

// Width returns the number of columns per row.
func (s *Sketch) Width() int { return s.width }

// Merge adds other into s. Both sketches must have identical parameters and
// seed (same hash family); Merge returns an error otherwise. Conservative
// sketches cannot be merged exactly, so merging one is also an error.
func (s *Sketch) Merge(other *Sketch) error {
	if s.depth != other.depth || s.width != other.width {
		return fmt.Errorf("cms: shape mismatch %dx%d vs %dx%d", s.depth, s.width, other.depth, other.width)
	}
	for i := range s.seeds {
		if s.seeds[i] != other.seeds[i] {
			return fmt.Errorf("cms: hash family mismatch")
		}
	}
	if s.conservative || other.conservative {
		return fmt.Errorf("cms: conservative sketches are not mergeable")
	}
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] += other.rows[i][j]
		}
	}
	s.n += other.n
	return nil
}

// AddNoise adds a fresh sample from the generator to every cell, rounded to
// an integer. Used by the private frequency-oracle baseline. Note the l1
// sensitivity of the full table is depth (one element touches one cell in
// every row), so callers must scale the noise to depth/eps
// (see baseline.FrequencyOracle).
func (s *Sketch) AddNoise(sample func() float64) {
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] += int64(math.Round(sample()))
		}
	}
}
