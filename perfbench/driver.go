package main

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"syscall"
	"time"
)

// never is the latency charged to an op that failed or was never sent:
// it is over every percentile.
const never = time.Duration(math.MaxInt64 / 4)

// sample is one op's timeline as offsets from the start of its phase.
type sample struct {
	intended time.Duration // when the arrival schedule said to send it
	ready    time.Duration // when its caller was free: max(intended, previous op's done)
	sent     time.Duration // when it was handed to the SDK
	done     time.Duration // when its result came back
	update   bool
	failed   bool
}

// latency is the op's time on the intended clock: a stall charges
// every op that was due while it lasted.
func (s sample) latency() time.Duration {
	if s.failed {
		return never
	}
	return s.done - s.intended
}

// service is the op's time on the service clock, from the actual send.
func (s sample) service() time.Duration { return s.done - s.sent }

// late is the scheduler's error: how long after its caller was free
// the op went out.
func (s sample) late() time.Duration { return s.sent - s.ready }

// wait is the op's queueing behind its caller's previous op.
func (s sample) wait() time.Duration { return s.ready - s.intended }

// arrivals draws a Poisson arrival schedule of the given rate over [0, d).
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// A caller is one session with at most one op in flight. For its k-th
// op the driver calls prepare while the caller is free, do at the send
// time (only do is timed), and verify once do has succeeded.
type caller interface {
	prepare(k int)
	do() (update bool, err error)
	verify()
}

// openLoop drives the callers at a combined Poisson rate for d, each on
// its own schedule at rate/len(callers). Ops are sent when due whatever
// the service is doing; an op due while its caller is busy waits for
// it. Ops still unsent past d+drain are abandoned and count as failed.
// Samples come back per caller, in each caller's order, with the start
// time they are offsets from.
func openLoop(rng *rand.Rand, rate float64, d, drain time.Duration, callers []caller) ([][]sample, time.Time) {
	scheds := make([][]time.Duration, len(callers))
	for i := range callers {
		scheds[i] = arrivals(rng, rate/float64(len(callers)), d)
	}
	out := make([][]sample, len(callers))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = runCaller(t0, scheds[i], d+drain, c)
		}()
	}
	wg.Wait()
	return out, t0
}

func runCaller(t0 time.Time, sched []time.Duration, cutoff time.Duration, c caller) []sample {
	out := make([]sample, len(sched))
	var prev time.Duration
	for k, at := range sched {
		s := &out[k]
		s.intended, s.ready = at, max(at, prev)
		if time.Since(t0) > cutoff {
			s.failed = true
			continue
		}
		c.prepare(k)
		sleepUntil(t0.Add(at))
		s.sent = time.Since(t0)
		upd, err := c.do()
		s.done = time.Since(t0)
		s.update, s.failed = upd, err != nil
		prev = s.done
		if err == nil {
			c.verify()
		}
	}
	return out
}

// sleepUntil blocks in nanosleep(2). time.Sleep is not used: when the
// process is otherwise idle, Go's timers wake through the netpoller at
// millisecond granularity, so sub-millisecond waits overshoot by up to
// a millisecond — more than the service time being measured.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop recomputes the rest
	}
}

// pct returns the exact p-quantile (nearest rank) of sorted values.
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sortedBy extracts one duration per sample and sorts it.
func sortedBy(ss []sample, f func(sample) time.Duration) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	slices.Sort(out)
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// windows is the number of equal windows a measured phase is split
// into. A latency percentile is reported as the median over the windows
// of each window's percentile, so a stall of the host that falls in one
// window does not set the figure; with at least 1000 ops per window a
// window's p99 still has 10 samples beyond it.
const windows = 5

// windowPcts splits [0, d) into k equal windows by intended send time
// and returns the p-quantile of latency in each.
func windowPcts(all []sample, d time.Duration, k int, p float64) []time.Duration {
	per := make([][]time.Duration, k)
	for _, s := range all {
		i := min(int(int64(s.intended)*int64(k)/int64(d)), k-1)
		per[i] = append(per[i], s.latency())
	}
	qs := make([]time.Duration, k)
	for i, ls := range per {
		slices.Sort(ls)
		qs[i] = pct(ls, p)
	}
	return qs
}

// windowed is the median over k windows of [0, d) of each window's
// p-quantile of latency.
func windowed(all []sample, d time.Duration, k int, p float64) time.Duration {
	qs := windowPcts(all, d, k, p)
	slices.Sort(qs)
	return qs[k/2]
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out
}
