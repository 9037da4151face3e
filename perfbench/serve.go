package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster"
)

// servingWorkload is one traffic mix against the served cluster. The
// topology is ccserved's: 4 shards × 3 replicas. Every other cluster,
// monitor and SDK setting is the library default.
type servingWorkload struct {
	criterion, replication string
	rate                   float64 // ops/s offered in the fixed-rate phase
	model                  func() model
}

var servingWorkloads = map[string]servingWorkload{
	"reads-cc":   {"CC", "broadcast", 2000, func() model { return newReadsModel(256) }},
	"writes-ccv": {"CCv", "broadcast", 400, func() model { return newWritesModel(256) }},
	"carts-ae":   {"CC", "antientropy", 1000, func() model { return newCartsModel(64, 128) }},
}

const (
	shards, replicas = 4, 3
	setups           = 21              // set-ups per run; setup_s is their median
	warmup           = time.Second     // unmeasured load before each measured phase
	drain            = 2 * time.Second // how long a phase may overrun before ops are abandoned
)

// server is one cluster served over HTTP on a loopback port, with one
// SDK client and session per caller.
type server struct {
	m      model
	c      *cluster.Cluster
	hs     *http.Server
	served chan error
	calls  []*sessionCaller

	tl     *tally
	mu     sync.Mutex
	broken error // first output check that failed
}

func setup(w servingWorkload, t *tracer) (*server, time.Duration, error) {
	start := time.Now()
	c, err := cluster.New(cluster.Config{Shards: shards, Replicas: replicas, Criterion: w.criterion, Replication: w.replication})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	var h http.Handler = cluster.NewHTTPHandler(c)
	if t != nil {
		h = t.wrap(h)
	}
	s := &server{m: w.model(), c: c, hs: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	for i := 0; i < callers; i++ {
		cli, err := newClient(url, t, i)
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.calls = append(s.calls, &sessionCaller{s: s, id: i, cli: cli, sess: cli.Session(i), t: t})
	}
	for i, o := range s.m.objects() {
		if err := s.calls[i%callers].cli.CreateObject(context.Background(), o.name, o.adt); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("create %s: %w", o.name, err)
		}
	}
	return s, time.Since(start), nil
}

// newClient builds the SDK client of one caller: the default HTTP
// transport settings, held to one connection, with the tracing round
// tripper when t is set.
func newClient(url string, t *tracer, session int) (*client.Client, error) {
	var rt http.RoundTripper = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64, MaxConnsPerHost: 1}
	if t != nil {
		rt = &roundTripper{base: rt, t: t, session: session}
	}
	return client.New(client.NewHTTPTransport(url, client.WithHTTPClient(&http.Client{Transport: rt})))
}

func (s *server) close() error {
	for _, c := range s.calls {
		c.cli.Close()
	}
	err := s.hs.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.c.Close())
}

// finish runs the correctness gates and shuts the server down: every
// output check passed, the replicas converge to equal states that the
// model accepts, and the monitor gave at least one verdict and found no
// violation.
func (s *server) finish() (cluster.Summary, error) {
	gate := s.broken
	if gate == nil {
		if err := s.c.AwaitConvergence(10 * time.Second); err != nil {
			gate = fmt.Errorf("replicas did not converge: %w", err)
		}
	}
	if gate == nil {
		read := func(r int, obj string, in cc.Input) (cc.Output, error) {
			// Session r+replicas·k is pinned to replica r.
			return s.c.Session(r+replicas*1000).Invoke(obj, in)
		}
		if err := s.m.final(read, replicas); err != nil {
			gate = fmt.Errorf("converged state: %w", err)
		}
	}
	if err := s.close(); err != nil && gate == nil {
		gate = fmt.Errorf("close: %w", err)
	}
	sum := s.c.Monitor().Summary()
	switch {
	case gate != nil:
	case len(sum.Violations) > 0:
		v := sum.Violations[0]
		gate = fmt.Errorf("monitor: %d violations, first %s on %s", len(sum.Violations), v.Criterion, v.Object)
	case sum.Errors > 0:
		gate = fmt.Errorf("monitor: %d checker errors", sum.Errors)
	case sum.Verdicts == 0:
		gate = errors.New("monitor: no verdict")
	}
	return sum, gate
}

// drive offers rate ops/s for d and returns the samples and the
// phase's start time.
func (s *server) drive(seed int64, rate float64, d time.Duration) ([][]sample, time.Time) {
	rng := rand.New(rand.NewSource(seed))
	cs := make([]caller, len(s.calls))
	for i, c := range s.calls {
		c.rng = rand.New(rand.NewSource(rng.Int63()))
		cs[i] = c
	}
	per, t0 := openLoop(rng, rate, d, drain, cs)
	s.tl.add(per)
	return per, t0
}

func (s *server) fail(err error) {
	s.mu.Lock()
	if s.broken == nil {
		s.broken = err
	}
	s.mu.Unlock()
}

// sessionCaller is one open-loop caller: an SDK session with at most
// one op in flight.
type sessionCaller struct {
	s    *server
	id   int
	cli  *client.Client
	sess *client.Session
	rng  *rand.Rand
	t    *tracer
	cur  op
	out  cc.Output
}

func (c *sessionCaller) prepare(k int) {
	c.cur = c.s.m.gen(c.id, c.rng)
	if c.t != nil {
		c.t.cur[c.id].Store(int64(k))
	}
}

func (c *sessionCaller) do() (bool, error) {
	out, err := c.sess.Invoke(context.Background(), c.cur.obj, c.cur.in)
	c.out = out
	return c.cur.update, err
}

func (c *sessionCaller) verify() {
	if err := c.s.m.check(c.id, c.cur, c.out); err != nil {
		c.s.fail(err)
	}
}

// tally counts every op a run drove.
type tally struct{ attempted, failed int }

func (t *tally) add(per [][]sample) {
	for _, ss := range per {
		for _, s := range ss {
			t.attempted++
			if s.failed {
				t.failed++
			}
		}
	}
}

// runServing measures one serving workload. Untraced, it reports the
// end-to-end metrics of one fixed-rate phase as long as the run:
// set-up time, latency, the process's CPU time per op and retained
// heap. Traced, it
// splits the run between the same phase untraced and, on a fresh
// cluster, traced, and reports the per-layer metrics and the difference
// between the two.
func runServing(w servingWorkload, seed int64, seconds int, trace bool, tr *tracer) (metrics, *tally, error) {
	m, tl := metrics{}, &tally{}
	fixed := time.Duration(seconds) * time.Second
	if trace {
		fixed /= 2
	}
	next := rand.New(rand.NewSource(seed)).Int63
	var setupTimes []time.Duration
	newServer := func(t *tracer) (*server, error) {
		s, d, err := setup(w, t)
		setupTimes = append(setupTimes, d)
		if err == nil {
			s.tl = tl
		}
		return s, err
	}
	for len(setupTimes) < setups-1 { // the phase below sets up the last
		s, err := newServer(nil)
		if err != nil {
			return nil, tl, err
		}
		if err := s.close(); err != nil {
			return nil, tl, err
		}
	}

	base := liveHeap()
	s, err := newServer(nil)
	if err != nil {
		return nil, tl, err
	}
	fixedSeed := next()
	s.drive(next(), w.rate, warmup)
	st0, pr0 := s.c.Stats(), readProcess()
	per, _ := s.drive(fixedSeed, w.rate, fixed)
	st1, pr1 := s.c.Stats(), readProcess()
	all := flatten(per)
	m.set("p50_us", us(windowed(all, fixed, windows, 0.5)))
	m.set("p99_us", us(windowed(all, fixed, windows, 0.99)))
	m.set("core_us_per_op", us(pr1.cpu-pr0.cpu)/float64(len(all)))
	logWindows(all, fixed)
	if trace {
		m.durations("driver.late", sortedBy(all, sample.late), 0.5, 0.99)
		m.durations("driver.wait", sortedBy(all, sample.wait), 0.5)
		stationMetrics(m, st0, st1)
		processMetrics(m, pr0, pr1, len(all))
	}
	per, all = nil, nil // so that heap_mb does not count the samples

	// heap_mb is what the open cluster, its listener and its clients
	// hold: the live heap with them, less the live heap once they are
	// closed and unreachable. The benchmark's own model, which grows
	// with every op, is held across both readings and so not counted.
	// Both are read at rest: once the replicas have converged and the
	// monitor's grace timers (250 ms by default) have fired, until
	// which a timer still holds a window, even of a closed cluster.
	_ = s.c.AwaitConvergence(10 * time.Second) // if not, finish fails the run
	time.Sleep(time.Second)
	held, model := liveHeap(), s.m
	sum, err := s.finish()
	s = nil
	if err != nil {
		return m, tl, err
	}
	time.Sleep(time.Second)
	rest := liveHeap()
	runtime.KeepAlive(model)
	m.set("heap_mb", float64(int64(held)-int64(rest))/1e6)
	fmt.Fprintf(os.Stderr, "heap: %.3f MB held by the cluster, %.3f MB by the model\n", m["heap_mb"], float64(int64(rest)-int64(base))/1e6)

	if trace {
		monitorMetrics(m, sum)
		s, err := newServer(tr)
		if err != nil {
			return nil, tl, err
		}
		s.drive(next(), w.rate, warmup)
		tr.reset()
		stop := sampleLag(s.c, m)
		per, t0 := s.drive(fixedSeed, w.rate, fixed)
		stop()
		tr.addOps(t0, per)
		if _, err := s.finish(); err != nil {
			return m, tl, err
		}
		if err := spanMetrics(tr, per, m); err != nil {
			return m, tl, err
		}
		traced := us(windowed(flatten(per), fixed, windows, 0.5))
		m.set("trace.overhead_pct", 100*(traced-m["p50_us"])/m["p50_us"])
	}
	slices.Sort(setupTimes)
	m.set("setup_s", pct(setupTimes, 0.5).Seconds())
	m.set("error_rate", float64(tl.failed)/float64(tl.attempted))
	return m, tl, nil
}

// logWindows prints each window's latency percentiles to stderr.
func logWindows(all []sample, d time.Duration) {
	p50s, p99s := windowPcts(all, d, windows, 0.5), windowPcts(all, d, windows, 0.99)
	for i := range p50s {
		fmt.Fprintf(os.Stderr, "window %d: p50 %v, p99 %v\n", i, p50s[i], p99s[i])
	}
}

// liveHeap is the heap held by reachable objects after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first GC only moves sync.Pool contents to the victim cache
	return readMetric("/memory/classes/heap/objects:bytes")
}

func readMetric(name string) uint64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// process is a snapshot of the process's CPU time and allocation.
type process struct {
	cpu         time.Duration
	allocs, gcs uint64
}

func readProcess() process {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return process{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: readMetric("/gc/heap/allocs:bytes"),
		gcs:    readMetric("/gc/cycles/total:gc-cycles"),
	}
}

func processMetrics(m metrics, a, b process, ops int) {
	m.set("process.cpu_us_per_op", us(b.cpu-a.cpu)/float64(ops))
	m.set("process.alloc_bytes_per_op", float64(b.allocs-a.allocs)/float64(ops))
	m.set("process.gc_cycles", float64(b.gcs-a.gcs))
}

func stationMetrics(m metrics, a, b cluster.Stats) {
	ratio := func(x, y int64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	m.set("station.batch_fill", ratio(b.Totals.BatchedOps-a.Totals.BatchedOps, b.Totals.Broadcasts-a.Totals.Broadcasts))
	m.set("station.fanout", ratio(b.Totals.Applied-a.Totals.Applied, b.Totals.Updates-a.Totals.Updates))
	m.set("station.log_len", float64(b.Totals.LogLen))
}

func monitorMetrics(m metrics, sum cluster.Summary) {
	m.set("monitor.verdicts", float64(sum.Verdicts))
	m.set("monitor.exhausted", float64(sum.Exhausted))
	m.set("monitor.capped_ops", float64(sum.CappedOps))
}

// sampleLag polls the cluster's replication lag every 10ms until the
// returned stop is called, then records its median and maximum.
func sampleLag(c *cluster.Cluster, m metrics) (stop func()) {
	var lags []time.Duration
	end := poll(10*time.Millisecond, func() {
		lags = append(lags, time.Duration(c.MaxLagUS())*time.Microsecond)
	})
	return func() {
		end()
		slices.Sort(lags)
		m.set("broadcast.lag_p50_us", us(pct(lags, 0.5)))
		m.set("broadcast.lag_max_us", us(pct(lags, 1)))
	}
}

// poll calls f every interval on its own goroutine until the returned
// stop is called; stop returns once that goroutine has exited, so what
// f wrote is then safe to read.
func poll(interval time.Duration, f func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				f()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
