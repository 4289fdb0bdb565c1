package main

import (
	"syscall"
	"time"
)

// clock is the time source the open-loop scheduler runs on; tests drive it
// with a fake so due-time arithmetic is checked without sleeping.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// wallClock is the real clock. It sleeps in the nanosleep system call, not
// in time.Sleep: an idle Go scheduler parks in epoll_wait, whose timeout is
// whole milliseconds, so time.Sleep wakes a sub-millisecond sleeper up to a
// millisecond late — as long as the ops being timed take.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only makes the caller re-check the clock
}

// schedule fixes when each op of one open-loop worker is due: op i at
// start + offset + i·interval. The schedule never looks at how long ops
// take, so a stalled server receives the same load as a healthy one and
// the wait it imposes on later ops is charged to them.
type schedule struct {
	start    time.Time
	offset   time.Duration
	interval time.Duration
}

// due returns when op i is due.
func (s schedule) due(i int) time.Time {
	return s.start.Add(s.offset + time.Duration(i)*s.interval)
}

// workerSchedules splits a class rate (ops/s) across n workers: worker w
// takes every n-th slot, so together they issue one op every 1/rate.
func workerSchedules(start time.Time, rate float64, n int) []schedule {
	slot := time.Duration(float64(time.Second) / rate)
	out := make([]schedule, n)
	for w := range out {
		out[w] = schedule{start: start, offset: time.Duration(w) * slot, interval: time.Duration(n) * slot}
	}
	return out
}

// job is one scheduled op of one worker: its index on the worker's
// schedule, when it was due, and when the dispatcher released it.
type job struct {
	i         int
	due, sent time.Time
}

// dispatch releases every worker's jobs in due order, each when it falls
// due, until the first job due at or after end; then it closes the
// channels. It is the open loop's only clock: workers never sleep, so one
// thread waits on the timer and a worker that is still busy when its next
// job falls due simply finds it queued. Each channel must have room for all
// of its worker's jobs (see jobsUntil), or a slow worker would hold the
// dispatcher — and so every other worker's schedule — back.
func dispatch(clk clock, scheds []schedule, end time.Time, out []chan job) {
	next := make([]int, len(scheds))
	for {
		w, due := -1, end
		for i, s := range scheds {
			if d := s.due(next[i]); d.Before(due) {
				w, due = i, d
			}
		}
		if w < 0 {
			break
		}
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		out[w] <- job{i: next[w], due: due, sent: clk.Now()}
		next[w]++
	}
	for _, ch := range out {
		close(ch)
	}
}

// jobsUntil is how many jobs of s are due before end.
func (s schedule) jobsUntil(end time.Time) int {
	span := end.Sub(s.start) - s.offset
	if span <= 0 {
		return 0
	}
	return int((span-1)/s.interval) + 1
}

// work runs one worker: it takes jobs as the dispatcher releases them and
// hands observe each op's latency measured from its due time — so the wait
// behind a slow earlier op is charged to the op that waited — and how late
// the generator itself released the job. It returns when the dispatcher
// closes the channel.
func work(clk clock, jobs <-chan job, op func(i int) error, observe func(i int, fromDue, late time.Duration, err error)) {
	for j := range jobs {
		err := op(j.i)
		observe(j.i, clk.Now().Sub(j.due), j.sent.Sub(j.due), err)
	}
}
