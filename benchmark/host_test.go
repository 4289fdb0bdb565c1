package main

import (
	"context"
	"testing"
	"time"
)

func TestHostGateWaitsForTheHostsNormalSpeedWithinItsBudget(t *testing.T) {
	const ms = time.Millisecond
	// Slow; normal once but slow again on asking twice; normal twice.
	probes := []time.Duration{150 * ms, 101 * ms, 145 * ms, 102 * ms, 104 * ms}
	var slept, saved time.Duration
	g := &hostGate{
		probe:  func() time.Duration { p := probes[0]; probes = probes[1:]; return p },
		sleep:  func(d time.Duration) { slept += d },
		save:   func(d time.Duration) { saved = d },
		record: 100 * ms,
		budget: 10 * hostRetry,
	}
	if got := g.await(context.Background()); got != 1.04 {
		t.Errorf("round started at slowdown %v; want 1.04, the slower of the last two probes", got)
	}
	if slept != 2*hostRetry || g.waited != slept || g.budget != 8*hostRetry || saved != 0 {
		t.Errorf("slept %v, waited %v, budget left %v, saved %v; want two retries charged to the budget and the record untouched", slept, g.waited, g.budget, saved)
	}

	// A faster probe than the record becomes the record.
	probes = []time.Duration{90 * ms, 90 * ms}
	if got := g.await(context.Background()); got != 1 || g.record != 90*ms || saved != 90*ms {
		t.Errorf("slowdown %v, record %v, saved %v; want 1 and the new record 90ms stored", got, g.record, saved)
	}

	// A host that stays slow: the run waits its budget out, then measures
	// anyway and is flagged.
	g = &hostGate{probe: func() time.Duration { return 150 * ms }, sleep: func(time.Duration) {}, record: 100 * ms, budget: 3 * hostRetry}
	if got := g.await(context.Background()); got != 1.5 || g.waited != 3*hostRetry {
		t.Errorf("gave up at slowdown %v after %v; want 1.5 after the whole budget", got, g.waited)
	}
	res := &runResult{}
	g.report(res)
	if len(res.Flags) != 1 || res.HostSlowdown != 1.5 || res.HostWaitS != 3 {
		t.Errorf("report: flags %v, slowdown %v, waited %vs; want one host-slow flag, 1.5, 3s", res.Flags, res.HostSlowdown, res.HostWaitS)
	}
}
