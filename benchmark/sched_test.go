package main

import (
	"testing"
	"time"
)

// fakeClock is a clock that only moves when told to: Sleep advances it by
// the requested time plus a fixed overshoot, as a real timer would.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
	slept     []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d + c.overshoot)
}

const ms = time.Millisecond

func TestWorkerSchedulesInterleave(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ss := workerSchedules(t0, 1000, 2) // one op per millisecond over two workers
	if len(ss) != 2 || ss[0].interval != 2*ms || ss[1].offset != ms {
		t.Fatalf("schedules %+v", ss)
	}
	if got := ss[1].due(3).Sub(t0); got != 7*ms {
		t.Errorf("worker 1, op 3 due at +%s; want +7ms", got)
	}
	if got := ss[0].jobsUntil(t0.Add(10 * ms)); got != 5 {
		t.Errorf("worker 0 has %d jobs before +10ms; want 5 (0,2,4,6,8)", got)
	}
	if got := ss[1].jobsUntil(t0.Add(9 * ms)); got != 4 {
		t.Errorf("worker 1 has %d jobs before +9ms; want 4 (1,3,5,7)", got)
	}
	if got := ss[1].jobsUntil(t0.Add(ms)); got != 0 {
		t.Errorf("worker 1 has %d jobs before its first due time; want 0", got)
	}
}

func TestDispatchReleasesInDueOrderAndReportsLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0, overshoot: 100 * time.Microsecond}
	scheds := workerSchedules(t0, 1000, 2)
	end := t0.Add(6 * ms)
	out := []chan job{make(chan job, 8), make(chan job, 8)}
	dispatch(clk, scheds, end, out)

	var got []job
	for w, ch := range out {
		n := 0
		for j := range ch { // dispatch closed the channels
			if j.i != n {
				t.Errorf("worker %d: job %d arrived in position %d", w, j.i, n)
			}
			if want := scheds[w].due(j.i); !j.due.Equal(want) {
				t.Errorf("worker %d job %d due %v; want %v", w, j.i, j.due, want)
			}
			if !j.due.Before(end) {
				t.Errorf("worker %d job %d is due at or after the window's end", w, j.i)
			}
			got = append(got, j)
			n++
		}
		if n != 3 {
			t.Errorf("worker %d got %d jobs; want 3", w, n)
		}
	}
	// The first job is due at once and is released on time; every later
	// one is released one overshoot late, and that lateness never
	// accumulates: each sleep aims at the due time, not at a fixed gap.
	for _, j := range got {
		late := j.sent.Sub(j.due)
		want := clk.overshoot
		if j.due.Equal(t0) {
			want = 0
		}
		if late != want {
			t.Errorf("job due +%s released %s late; want %s", j.due.Sub(t0), late, want)
		}
	}
	for i, d := range clk.slept {
		if d <= 0 || d > ms {
			t.Errorf("sleep %d was %s; a dispatcher on time never sleeps past the next due time", i, d)
		}
	}
}

func TestWorkTimesFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	jobs := make(chan job, 3)
	// Three jobs 10 ms apart, all already released on time; the first op is
	// slow, so the second starts late through no fault of the generator.
	for i := 0; i < 3; i++ {
		due := t0.Add(time.Duration(i) * 10 * ms)
		jobs <- job{i: i, due: due, sent: due.Add(200 * time.Microsecond)}
	}
	close(jobs)
	service := []time.Duration{25 * ms, 5 * ms, 5 * ms}
	type obs struct{ fromDue, late time.Duration }
	var seen []obs
	work(clk, jobs,
		func(i int) error {
			// An op cannot start before it was released.
			if rel := t0.Add(time.Duration(i)*10*ms + 200*time.Microsecond); clk.now.Before(rel) {
				clk.now = rel
			}
			clk.now = clk.now.Add(service[i])
			return nil
		},
		func(_ int, fromDue, late time.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			seen = append(seen, obs{fromDue, late})
		})
	want := []obs{
		{25*ms + 200*time.Microsecond, 200 * time.Microsecond}, // 0 → 25.2
		{20*ms + 200*time.Microsecond, 200 * time.Microsecond}, // due 10, starts 25.2, ends 30.2
		{15*ms + 200*time.Microsecond, 200 * time.Microsecond}, // due 20, starts 30.2, ends 35.2
	}
	if len(seen) != len(want) {
		t.Fatalf("observed %d ops; want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("op %d: latency from due %s, generator lateness %s; want %s, %s", i, seen[i].fromDue, seen[i].late, want[i].fromDue, want[i].late)
		}
	}
}
