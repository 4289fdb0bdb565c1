package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"dpmg"
	"dpmg/internal/framing"
	"dpmg/internal/workload"
)

// cold-churn loads only the cold tier: every cycle evicts a preloaded tenant
// and faults it back in through the ingest path, so record encode, fsync,
// load and restore dominate while ingest and release do almost nothing.
const (
	churnTenants   = 64
	churnPool      = 64 // 4096-item preload frames, shared by the tenants
	churnPreload   = 16 // pool frames per tenant: 64 Ki items
	churnSmallPool = 64 // 512-item frames that fault a tenant in
	churnSmallLen  = 512
	churnTwins     = 4 // tenants per client replayed exactly by a never-evicted twin
	churnWarmOps   = 20
)

// churnWL is the cold-churn workload.
type churnWL struct {
	base
	closedLoop
	names  []string
	owned  [][]int
	pool   []frame
	small  []frame
	conns  []*framing.Client // per tenant
	cycles []int64           // per tenant: completed evict + fault-in cycles

	twins []*twin
	// recordBytes is the size of the last offload record a replay wrote.
	recordBytes int
}

// preloadOf lists the pool frames tenant t is preloaded with.
func preloadOf(t int) []int {
	out := make([]int, churnPreload)
	for j := range out {
		out[j] = (t + j) % churnPool
	}
	return out
}

// setupChurn launches a server with a state directory, creates and preloads
// the tenants and runs a few cycles to warm the path up.
func setupChurn(ctx context.Context, e *env) (instance, error) {
	srv, err := launchServer(ctx, e.bin, false, "-state", filepath.Join(e.dir, "state"), "-snapshot-interval", "0")
	if err != nil {
		return nil, err
	}
	w := &churnWL{base: base{env: e, srv: srv, ctx: ctx}, cycles: make([]int64, churnTenants)}
	w.next, w.owned = make([]int64, e.clients), make([][]int, e.clients)
	z := workload.NewZipfian(universe, zipfSkew, subSeed(e.seed, "cold-churn"))
	w.pool = zipfFrames(z, churnPool, zipfFrameLen)
	w.small = zipfFrames(z, churnSmallPool, churnSmallLen)
	for t := 0; t < churnTenants; t++ {
		name := fmt.Sprintf("cold-%02d", t)
		if err := createStream(ctx, srv.api, name); err != nil {
			w.close()
			return nil, err
		}
		w.names = append(w.names, name)
		w.owned[t%e.clients] = append(w.owned[t%e.clients], t)
		conn, err := dialBound(srv.target.IngestAddr, name)
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns = append(w.conns, conn)
	}
	errs := make([]error, e.clients)
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, t := range w.owned[c] {
				for _, f := range preloadOf(t) {
					if err := sendFrame(w.conns[t], w.pool[f].payload); err != nil {
						errs[c] = fmt.Errorf("preload %s: %w", w.names[t], err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.close()
			return nil, err
		}
	}
	recs, _ := w.closedLoop.drive(ctx, limit{ops: churnWarmOps}, false, w.op, nil)
	if err := warmErr(recs); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// op evicts client c's next tenant through the admin lever, then sends it a
// frame, which faults it back in on the ingest path.
func (w *churnWL) op(c int, i int64, r *recorder, parent int32) error {
	t := w.owned[c][i%int64(len(w.owned[c]))]
	t0 := time.Now()
	ev := r.tr.begin("client.evict", parent, opID(c, i))
	changed, err := w.srv.api.AdminEvict(w.ctx, w.names[t])
	r.tr.end(ev, 1)
	if err != nil {
		return err
	}
	if !changed {
		return fmt.Errorf("evict %s: tenant was not resident", w.names[t])
	}
	t1 := time.Now()
	fi := r.tr.begin("client.faultin", parent, opID(c, i))
	err = sendFrame(w.conns[t], w.small[w.cycles[t]%churnSmallPool].payload)
	r.tr.end(fi, churnSmallLen)
	if err != nil {
		return err
	}
	r.observe("evict", t1.Sub(t0))
	r.observe("faultin", time.Since(t1))
	w.cycles[t]++
	return nil
}

// replay runs one evict + fault-in cycle through the twin's cold tier.
func (w *churnWL) replay(c int, i int64, r *recorder, parent int32) error {
	n, err := w.twins[c].replayChurn(r.tr, parent, opID(c, i), w.small[i%churnSmallPool])
	if c == 0 {
		w.recordBytes = n
	}
	return err
}

// prepareTrace builds one twin per client whose cold stream carries a
// tenant's preload.
func (w *churnWL) prepareTrace() error {
	for c := range w.next {
		t, err := newTwin(w.env.dir, c)
		if err != nil {
			return err
		}
		frames := make([]frame, 0, churnPreload)
		for _, f := range preloadOf(w.owned[c][0]) {
			frames = append(frames, w.pool[f])
		}
		if err := t.coldPreload(frames); err != nil {
			return err
		}
		w.twins = append(w.twins, t)
	}
	return nil
}

func (w *churnWL) drive(ctx context.Context, d time.Duration, traced bool) ([]*recorder, time.Duration) {
	return w.closedLoop.drive(ctx, limit{d: d}, traced, w.op, w.replay)
}

// check requires, per tenant, evictions = fault-ins = cycles and items
// conserved, and — on a sample of tenants — the server's estimates to equal
// those of an in-process twin that was never evicted, within Lemma 8.
func (w *churnWL) check(ctx context.Context) *checkResult {
	cr := &checkResult{}
	mgr, err := dpmg.NewManager(streamConfig())
	if err != nil {
		cr.failf("twin: %v", err)
		return cr
	}
	sampled := make(map[int]bool)
	for c := range w.next {
		for _, t := range w.owned[c][:min(churnTwins, len(w.owned[c]))] {
			sampled[t] = true
		}
	}
	for t, name := range w.names {
		n := int64(churnPreload*zipfFrameLen) + w.cycles[t]*churnSmallLen
		st := checkConserved(ctx, cr, w.srv.api, name, n)
		if st == nil {
			continue
		}
		if st.Evictions != w.cycles[t] || st.FaultIns != w.cycles[t] {
			cr.failf("%s: %d evictions, %d fault-ins, %d cycles were acked", name, st.Evictions, st.FaultIns, w.cycles[t])
		}
		if !sampled[t] {
			continue
		}
		tw, _, err := mgr.CreateStream(name, dpmg.StreamConfig{})
		if err != nil {
			cr.failf("twin: %v", err)
			return cr
		}
		poolTimes, smallTimes := make([]int64, churnPool), make([]int64, churnSmallPool)
		for _, f := range preloadOf(t) {
			poolTimes[f]++
			if err := tw.UpdateBatch(w.pool[f].items); err != nil {
				cr.failf("twin: %v", err)
				return cr
			}
		}
		for i := int64(0); i < w.cycles[t]; i++ {
			smallTimes[i%churnSmallPool]++
			if err := tw.UpdateBatch(w.small[i%churnSmallPool].items); err != nil {
				cr.failf("twin: %v", err)
				return cr
			}
		}
		counts := truth(w.pool, poolTimes)
		for x, c := range truth(w.small, smallTimes) {
			counts[x] += c
		}
		top := topOf(counts, topCheck)
		ests := checkEnvelope(ctx, cr, w.srv.api, name, top, n)
		// The server answers from its published view (the shards merged down
		// to k counters), so the twin must publish before it is compared.
		if err := tw.Publish(); err != nil {
			cr.failf("twin: %v", err)
			return cr
		}
		for i, ic := range top {
			if want := tw.Estimate(ic.item); ests[i] >= 0 && ests[i] != want {
				cr.failf("%s: item %d: server estimates %d after %d evictions, never-evicted twin %d", name, ic.item, ests[i], w.cycles[t], want)
			}
		}
	}
	return cr
}

func (w *churnWL) layerCounts() map[string]float64 {
	return map[string]float64{
		"framing.bytes_per_item":       float64(framing.HeaderSize+8*churnSmallLen) / churnSmallLen,
		"encoding.stream_record_bytes": float64(w.recordBytes),
	}
}

func (w *churnWL) close() {
	for _, c := range w.conns {
		c.Close() //nolint:errcheck // the server is about to stop anyway
	}
	w.base.close()
}
