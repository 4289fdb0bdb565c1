package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"

	"dpmg"
	"dpmg/internal/cluster"
	"dpmg/internal/merge"
	"dpmg/internal/stream"
	"dpmg/internal/workload"
)

// Every workload sketches with the paper's serving shape: k counters over a
// universe far larger than k, four ingest shards per stream.
const (
	sketchK  = 256
	universe = 1 << 20
	shards   = 4
	zipfSkew = 1.05
)

// subSeed derives an independent generator seed for one named input of a
// run, so adding an input never shifts the bytes of another.
func subSeed(seed uint64, tag string) uint64 {
	h := seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint64(tag[i])) * 0x100000001b3
	}
	return h
}

// frame is one pre-encoded ingest batch: the wire payload the generator
// writes, and the items behind it for twins and ground truth.
type frame struct {
	items   []stream.Item
	payload []byte
}

// encodeItems renders items as the 8-byte little-endian payload both ingest
// datapaths carry.
func encodeItems(items []stream.Item) []byte {
	out := make([]byte, 0, 8*len(items))
	for _, x := range items {
		out = binary.LittleEndian.AppendUint64(out, uint64(x))
	}
	return out
}

// zipfFrames draws n frames of size Zipf(zipfSkew) items from z.
func zipfFrames(z *workload.Zipfian, n, size int) []frame {
	out := make([]frame, n)
	for i := range out {
		items := z.Stream(size)
		out[i] = frame{items: items, payload: encodeItems(items)}
	}
	return out
}

// hotFrames draws n frames of size items uniformly from a fixed set of
// `keys` distinct items: with keys < k every update after the first few is
// a counter hit (Algorithm 1, Branch 1).
func hotFrames(seed uint64, keys, n, size int) []frame {
	rng := rand.New(rand.NewPCG(seed, seed^0x5851f42d4c957f2d))
	set := make([]stream.Item, 0, keys)
	seen := make(map[stream.Item]bool, keys)
	for len(set) < keys {
		x := stream.Item(rng.Uint64N(universe) + 1)
		if !seen[x] {
			seen[x] = true
			set = append(set, x)
		}
	}
	out := make([]frame, n)
	for i := range out {
		items := make([]stream.Item, size)
		for j := range items {
			items[j] = set[rng.IntN(keys)]
		}
		out[i] = frame{items: items, payload: encodeItems(items)}
	}
	return out
}

// itemCount is one item with its exact frequency.
type itemCount struct {
	item  stream.Item
	count int64
}

// truth accumulates exact item frequencies, indexed by item: frame f
// contributes its items times[f] times. It is the ground truth Lemma 8 is
// checked against.
func truth(frames []frame, times []int64) []int64 {
	counts := make([]int64, universe+1)
	for f, fr := range frames {
		if times[f] == 0 {
			continue
		}
		for _, x := range fr.items {
			counts[x] += times[f]
		}
	}
	return counts
}

// topOf returns the n most frequent items of an item-indexed count table,
// ties broken by smaller item so the choice is a function of the counts
// alone.
func topOf(counts []int64, n int) []itemCount {
	var all []itemCount
	for x, c := range counts {
		if c > 0 {
			all = append(all, itemCount{stream.Item(x), c})
		}
	}
	return largest(all, n)
}

// largest sorts all by descending count (smaller item first among equals)
// and returns the first n.
func largest(all []itemCount, n int) []itemCount {
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].item < all[j].item
	})
	return all[:min(n, len(all))]
}

// summaryVariant is one shippable k-counter summary of a Zipf segment.
type summaryVariant struct {
	sum *merge.Summary
	// wrapped is the same summary behind the public type the twin folds.
	wrapped *dpmg.MergeableSummary
}

// summaryVariants sketches n disjoint Zipf segments of segLen items into
// k-counter summaries, the payloads an edge would cut and ship.
func summaryVariants(z *workload.Zipfian, n, segLen int) ([]summaryVariant, error) {
	out := make([]summaryVariant, n)
	for i := range out {
		sk := dpmg.NewSketch(sketchK, universe)
		sk.UpdateBatch(z.Stream(segLen))
		w, err := sk.Summary()
		if err != nil {
			return nil, err
		}
		sum, err := merge.FromSorted(sketchK, w.Keys(), w.Counts())
		if err != nil {
			return nil, err
		}
		out[i] = summaryVariant{sum: sum, wrapped: w}
	}
	return out, nil
}

// shipPayload is a pre-encoded summary frame payload whose stream name and
// sequence number are patched in place before each ship, so shipping costs
// the generator one write and one ack read. All names patched in must have
// the length of the name it was encoded with.
type shipPayload struct {
	buf     []byte
	nameLen int
}

// newShipPayload encodes sum for a name of nameLen bytes.
func newShipPayload(sum *merge.Summary, nameLen int) (shipPayload, error) {
	placeholder := make([]byte, nameLen)
	for i := range placeholder {
		placeholder[i] = 'x'
	}
	buf, err := cluster.AppendSummaryPayload(nil, string(placeholder), 0, sum)
	if err != nil {
		return shipPayload{}, err
	}
	return shipPayload{buf: buf, nameLen: nameLen}, nil
}

// patch stamps the payload with a stream name and ship sequence number
// (layout: internal/cluster/wire.go — u16 name length, name, u64 seq, blob).
func (p shipPayload) patch(name string, seq uint64) ([]byte, error) {
	if len(name) != p.nameLen {
		return nil, fmt.Errorf("ship payload encoded for %d-byte names, got %q", p.nameLen, name)
	}
	copy(p.buf[2:], name)
	binary.LittleEndian.PutUint64(p.buf[2+p.nameLen:], seq)
	return p.buf, nil
}

// blob is the summary's encoding.KindSummary bytes inside the payload.
func (p shipPayload) blob() []byte { return p.buf[2+p.nameLen+8:] }
