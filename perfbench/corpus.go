package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/cc/checker"
	"github.com/paper-repro/ccbm/cc/histories"
)

// corpusSize is the number of generated histories, each shaped like an
// online-monitor window but smaller: 2–4 sessions and 4–12 ops (see
// shapes).
const corpusSize = 8000

// entry is one corpus history in text form with the verdicts it must
// get. Generated entries expect what their construction guarantees;
// the Fig. 3 entries expect their captions.
type entry struct {
	name   string
	text   string
	expect map[string]bool
}

// fig3 is the paper's Fig. 3 with its caption claims. "3b-omega" is 3b
// under the infinite reading (the final reads repeat forever), which
// the caption's "not WCC" needs.
var fig3 = []entry{
	{"3a", "adt: W2\np0: w(1) r/(0,1) r/(1,2)\np1: w(2) r/(0,2) r/(1,2)", map[string]bool{"CCv": true, "PC": false}},
	{"3b", "adt: W2\np0: w(1) r/(0,1)\np1: w(2) r/(0,2)", map[string]bool{"PC": true}},
	{"3b-omega", "adt: W2\np0: w(1) r/(0,1)*\np1: w(2) r/(0,2)*", map[string]bool{"WCC": false}},
	{"3c", "adt: W2\np0: w(1) r/(2,1)\np1: w(2) r/(1,2)", map[string]bool{"CC": true, "CCv": false}},
	{"3d", "adt: W2\np0: w(1) r/(0,1)\np1: w(2) r/(1,2)", map[string]bool{"SC": true}},
	{"3e", "adt: Queue\np0: push(1) pop/1 pop/1 push(3)\np1: push(2) pop/3 push(1)", map[string]bool{"WCC": true, "PC": true, "CC": false}},
	{"3f", "adt: Queue\np0: pop/1 pop/_\np1: push(1) push(2) pop/1 pop/_", map[string]bool{"CC": true, "SC": false}},
	{"3g", "adt: Queue2\np0: hd/1 rh(1) hd/2 rh(2)\np1: push(1) push(2) hd/1 rh(1) hd/2 rh(2)", map[string]bool{"CC": true}},
	{"3h", "adt: M[a-e]\np0: wa(1) wc(2) wd(1) rb/0 re/1 rc/3\np1: wb(1) wc(3) we(1) ra/0 rd/1 rc/3", map[string]bool{"CCv": true, "CC": false}},
	{"3i", "adt: M[a-d]\np0: wa(1) wa(2) wb(3) rd/3 rc/1 wa(1)\np1: wc(1) wc(2) wd(3) rb/3 ra/1 wc(1)", map[string]bool{"CM": true, "CC": false}},
}

// shape bounds a generated window: at most procs sessions, minOps to
// maxOps ops.
type shape struct{ procs, minOps, maxOps int }

// shapes gives each ADT's window shape when consistent and when planted.
// Refuting a criterion takes the exact checkers an exhaustive search, so
// on monitor-sized windows of about 40 ops most checks would run into
// the timeout instead of reaching a verdict. The cost of a window grows
// steeply with its size, and the largest shapes once drawn (Counter
// 3×10, Register 2×10, planted 7-op windows) gave a few windows per seed
// that took 50–180 ms each, a tenth of a pass, so the corpus cost moved
// with the seed. Without them no window takes much more than 30 ms, and
// a pass over the corpus takes about two seconds of CPU.
var shapes = map[string][2]shape{
	"Counter":  {{3, 8, 9}, {2, 5, 6}},
	"GSet":     {{4, 8, 12}, {2, 5, 6}},
	"Register": {{2, 6, 8}, {2, 5, 6}},
	"Queue":    {{2, 5, 8}, {2, 4, 6}},
}

// deliverP is the chance that a step of a simulated execution delivers
// a pending update rather than issuing an op.
const deliverP = 0.85

// genCorpus builds the corpus text from the seed: the Fig. 3 entries
// and corpusSize generated windows. A generated window is recorded
// from a simulated replicated execution that is causally consistent
// (replicas apply updates in causal delivery order) or causally
// convergent (replicas fold updates in timestamp order) by
// construction; one in three causally consistent windows then gets a
// planted violation, a read of a value no update could produce.
func genCorpus(seed int64) []entry {
	rng := rand.New(rand.NewSource(seed))
	out := slices.Clone(fig3)
	for i := 0; i < corpusSize; i++ {
		// The shape is stratified, not drawn, so that every seed's corpus
		// has the same mix of ADTs, kinds, sessions and sizes and seeds
		// differ only in the executions recorded.
		adt := []string{"Counter", "Register", "Queue", "GSet"}[i%4]
		kind := i / 4 % 3
		sh := shapes[adt][kind/2]
		procs, ops := 2+i/12%(sh.procs-1), sh.minOps+i/36%(sh.maxOps-sh.minOps+1)
		e := entry{name: fmt.Sprintf("gen%d-%s", i, adt)}
		var h [][]cc.Operation
		switch kind {
		case 0:
			h = simulate(rng, adt, procs, ops, false)
			e.expect = implied("CC", true)
		case 1:
			h = simulate(rng, adt, procs, ops, true)
			e.expect = implied("CCv", true)
		default:
			h = simulate(rng, adt, procs, ops, false)
			plant(rng, adt, h)
			e.name += "-planted"
			e.expect = implied("WCC", false)
			for k, v := range implied("PC", false) {
				e.expect[k] = v
			}
		}
		e.text = format(adt, h)
		out = append(out, e)
	}
	return out
}

// implied extends one verdict along the paper's Fig. 1 arrows: a
// satisfied criterion satisfies every weaker one, a violated criterion
// violates every stronger one.
func implied(crit string, holds bool) map[string]bool {
	out := map[string]bool{crit: holds}
	for changed := true; changed; {
		changed = false
		for _, a := range checker.Implications() {
			from, to := a[0], a[1] // from is stronger
			if !holds {
				from, to = to, from
			}
			if _, ok := out[from]; ok {
				if _, ok := out[to]; !ok {
					out[to] = holds
					changed = true
				}
			}
		}
	}
	return out
}

// update is one broadcast update: its origin, per-origin sequence
// number, vector clock and Lamport timestamp.
type update struct {
	from, seq int
	vc        []int
	ts        int
	in        cc.Input
}

// replica is one simulated process's replica.
type replica struct {
	state     cc.State
	delivered []int    // per origin, updates applied
	log       []update // every update known, for the timestamp fold
	clock     int
}

// simulate records ops operations of procs processes, each with its own
// replica: own updates apply at once, remote ones arrive by causal
// broadcast at random times. With convergent set, every replica's state
// is the fold of its known updates in (timestamp, origin) order;
// otherwise the updates apply in delivery order.
func simulate(rng *rand.Rand, adtName string, procs, ops int, convergent bool) [][]cc.Operation {
	t, err := cc.LookupADT(adtName)
	if err != nil {
		panic(err) // the generator only names registered ADTs
	}
	reps := make([]*replica, procs)
	for i := range reps {
		reps[i] = &replica{state: t.Init(), delivered: make([]int, procs)}
	}
	pending := make([][]update, procs) // per destination
	hist := make([][]cc.Operation, procs)
	next := 0 // unique values for registers and queues
	apply := func(r *replica, u update) {
		r.delivered[u.from]++
		r.clock = max(r.clock, u.ts)
		if !convergent {
			r.state, _ = t.Step(r.state, u.in)
			return
		}
		r.log = append(r.log, u)
		slices.SortFunc(r.log, func(a, b update) int {
			if a.ts != b.ts {
				return a.ts - b.ts
			}
			return a.from - b.from
		})
		r.state = t.Init()
		for _, l := range r.log {
			r.state, _ = t.Step(r.state, l.in)
		}
	}
	deliverable := func(q int, u update) bool {
		if u.seq != reps[q].delivered[u.from]+1 {
			return false
		}
		for k, v := range u.vc {
			if k != u.from && v > reps[q].delivered[k] {
				return false
			}
		}
		return true
	}
	for issued := 0; issued < ops; {
		if rng.Float64() < deliverP {
			q := rng.Intn(procs)
			for i, u := range pending[q] {
				if deliverable(q, u) {
					apply(reps[q], u)
					pending[q] = slices.Delete(pending[q], i, i+1)
					break
				}
			}
			continue
		}
		p := rng.Intn(procs)
		r := reps[p]
		in := genInput(rng, adtName, &next)
		// In convergent mode r.state is the fold of every known update,
		// and a new update's timestamp is the largest, so it applies last.
		_, out := t.Step(r.state, in)
		if t.IsQuery(in) {
			hist[p] = append(hist[p], cc.NewOp(in, out))
		} else {
			hist[p] = append(hist[p], cc.HiddenOp(in))
		}
		if t.IsUpdate(in) {
			r.clock++
			u := update{from: p, seq: r.delivered[p] + 1, vc: slices.Clone(r.delivered), ts: r.clock, in: in}
			u.vc[p] = u.seq
			apply(r, u)
			for q := range pending {
				if q != p {
					pending[q] = append(pending[q], u)
				}
			}
		}
		issued++
	}
	return hist
}

func genInput(rng *rand.Rand, adtName string, next *int) cc.Input {
	write := rng.Float64() < 0.5
	switch adtName {
	case "Counter":
		switch {
		case !write:
			return cc.NewInput("get")
		case rng.Intn(2) == 0:
			return cc.NewInput("inc", 1+rng.Intn(3))
		default:
			return cc.NewInput("dec", 1+rng.Intn(3))
		}
	case "Register":
		if write {
			*next++
			return cc.NewInput("w", *next)
		}
		return cc.NewInput("r")
	case "Queue":
		if write {
			*next++
			return cc.NewInput("push", *next)
		}
		return cc.NewInput("pop")
	default: // GSet
		switch {
		case write:
			return cc.NewInput("add", rng.Intn(8))
		case rng.Intn(2) == 0:
			return cc.NewInput("has", rng.Intn(8))
		default:
			return cc.NewInput("elems")
		}
	}
}

// impossible is a value no operation of a generated window writes,
// pushes, adds or can sum to.
const impossible = 1 << 20

// plant replaces one visible query output by a value no linearization
// can produce, so the window violates WCC and PC, and every criterion
// stronger than either.
func plant(rng *rand.Rand, adtName string, h [][]cc.Operation) {
	var visible [][2]int
	for p, ops := range h {
		for i, op := range ops {
			if !op.Hidden {
				visible = append(visible, [2]int{p, i})
			}
		}
	}
	bad := cc.NewOp(cc.NewInput(map[string]string{"Counter": "get", "Register": "r", "Queue": "pop", "GSet": "elems"}[adtName]), cc.IntOutput(impossible))
	if len(visible) == 0 {
		h[0] = append(h[0], bad)
		return
	}
	at := visible[rng.Intn(len(visible))]
	h[at[0]][at[1]] = bad
}

func format(adtName string, h [][]cc.Operation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "adt: %s\n", adtName)
	for p, ops := range h {
		fmt.Fprintf(&b, "p%d:", p)
		for _, op := range ops {
			b.WriteString(" " + op.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// parseCorpus parses every entry into a classifier item.
func parseCorpus(es []entry) ([]checker.Item, error) {
	items := make([]checker.Item, len(es))
	for i, e := range es {
		h, err := histories.Parse(e.text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		items[i] = checker.Item{Index: i, Name: e.name, H: h}
	}
	return items, nil
}

// pass is one classification of the whole corpus.
type pass struct {
	wall    time.Duration
	results []checker.ItemResult // in corpus order
	peak    uint64               // heap in use, bytes
}

// classify runs the corpus through the classifier once. With tr set it
// records a span per history and per check, laid out from the history's
// completion time and each Result.Elapsed.
func classify(cl *checker.Classifier, items []checker.Item, tr *tracer) (pass, error) {
	in := make(chan checker.Item)
	stopPeak := samplePeak()
	start := time.Now()
	out, err := cl.Stream(context.Background(), in)
	if err != nil {
		stopPeak()
		return pass{}, err
	}
	go func() {
		defer close(in)
		for _, it := range items {
			in <- it
		}
	}()
	p := pass{results: make([]checker.ItemResult, len(items))}
	for r := range out {
		p.results[r.Item.Index] = r
		if tr != nil {
			traceChecks(tr, r, time.Now())
		}
	}
	p.wall = time.Since(start)
	p.peak = stopPeak()
	return p, nil
}

func traceChecks(tr *tracer, r checker.ItemResult, end time.Time) {
	var total time.Duration
	for _, res := range r.Results {
		total += res.Elapsed
	}
	start := end.Add(-total)
	tr.add(span{name: "check.history", session: -1, op: r.Item.Index, start: start, end: end})
	for _, name := range checker.Names() {
		if res := r.Results[name]; res != nil {
			tr.add(span{name: "check." + name, session: -1, op: r.Item.Index, start: start, end: start.Add(res.Elapsed)})
			start = start.Add(res.Elapsed)
		}
	}
}

// samplePeak polls the heap in use every millisecond until the returned
// stop is called, and stop returns the largest reading.
func samplePeak() (stop func() uint64) {
	var peak uint64
	end := poll(time.Millisecond, func() {
		peak = max(peak, readMetric("/memory/classes/heap/objects:bytes"))
	})
	return func() uint64 {
		end()
		return peak
	}
}

// verify checks a pass against the corpus: every expected verdict is
// reached, no Fig. 1 arrow is violated, and every positive verdict of a
// criterion with an independent validator passes it. A check that ends
// without a verdict (out of budget or time) fails the pass if its
// verdict is expected or its history is from Fig. 3; the window shapes
// are chosen so that every check ends, so any other such check is only
// counted, and verify returns that count.
func verify(es []entry, p pass, witnesses bool) (exhausted int, err error) {
	for i, r := range p.results {
		if err := r.Err(); err != nil {
			return exhausted, fmt.Errorf("%s: %w", es[i].name, err)
		}
		if len(r.LatticeViolations) > 0 {
			return exhausted, fmt.Errorf("%s: verdicts violate Fig. 1 arrows %v", es[i].name, r.LatticeViolations)
		}
		for name, res := range r.Results {
			want, expected := es[i].expect[name]
			if res.Exhausted != "" {
				if expected || i < len(fig3) {
					return exhausted, fmt.Errorf("%s: %s ended without a verdict (%s)", es[i].name, name, res.Exhausted)
				}
				exhausted++
				continue
			}
			if expected && res.Satisfied != want {
				return exhausted, fmt.Errorf("%s: %s = %v, want %v", es[i].name, name, res.Satisfied, want)
			}
			if witnesses && res.Satisfied && validated[name] {
				if err := validate(r.Item.H, name); err != nil {
					return exhausted, fmt.Errorf("%s: %s witness: %w", es[i].name, name, err)
				}
			}
		}
	}
	return exhausted, nil
}

// validate re-runs one positive check alone, since the classifier's
// batch results carry no witness, and validates the witness it gives.
func validate(h *histories.History, name string) error {
	res, err := checker.Check(context.Background(), name, h, checker.WithPruning(true))
	if err != nil {
		return err
	}
	if !res.Satisfied {
		return fmt.Errorf("satisfied in the batch, not when checked alone")
	}
	return checker.ValidateWitness(h, name, res.Witness)
}

// validated names the criteria checker.ValidateWitness can re-derive.
var validated = map[string]bool{"WCC": true, "CC": true, "CCv": true, "SC": true}

// runCorpus measures check-corpus: set-up is generating and parsing the
// corpus; a measured run classifies it repeatedly for the run's length
// (at least three times) and reports medians over the passes.
func runCorpus(seed int64, seconds int, trace bool, tr *tracer) (metrics, *tally, error) {
	m, tl := metrics{}, &tally{}
	var es []entry
	var items []checker.Item
	var setupTimes []time.Duration
	for len(setupTimes) < setups {
		start := time.Now()
		es = genCorpus(seed)
		var err error
		if items, err = parseCorpus(es); err != nil {
			return nil, tl, err
		}
		setupTimes = append(setupTimes, time.Since(start))
	}
	slices.Sort(setupTimes)
	m.set("setup_s", pct(setupTimes, 0.5).Seconds())

	workers := runtime.NumCPU()
	cl := checker.NewClassifier(checker.WithPruning(true), checker.WithWorkers(workers), checker.WithTimeout(2*time.Second))
	// Only the first pass's results are kept; later passes keep their
	// times, so the benchmark's own heap stays flat across passes.
	var first pass
	var pr0, pr1 process // around the first pass
	var hist, walls, cpus []time.Duration
	var peaks []float64
	for t0 := time.Now(); len(walls) < 3 || time.Since(t0) < time.Duration(seconds)*time.Second; {
		if len(walls) == 0 {
			pr0 = readProcess()
		}
		cpu0 := readProcess().cpu
		p, err := classify(cl, items, nil)
		if err != nil {
			return m, tl, err
		}
		cpus = append(cpus, readProcess().cpu-cpu0)
		if len(walls) == 0 {
			pr1 = readProcess()
			first = p
		}
		exhausted, err := verify(es, p, len(walls) == 0)
		tl.attempted += checks(p)
		tl.failed += exhausted
		if err != nil {
			return m, tl, err
		}
		walls = append(walls, p.wall)
		peaks = append(peaks, float64(p.peak)/1e6)
		for _, r := range p.results {
			hist = append(hist, elapsed(r))
		}
		if trace {
			break
		}
	}
	slices.Sort(hist)
	slices.Sort(walls)
	slices.Sort(peaks)
	m.set("check_p50_us", us(pct(hist, 0.5)))
	m.set("check_p99_us", us(pct(hist, 0.99)))
	m.set("corpus_s", pct(walls, 0.5).Seconds())
	// Process CPU time, not the pass's wall time: the pool's workers
	// share the cores with the host's other tenants, and CPU time does
	// not count the time a worker waits for a core.
	slices.Sort(cpus)
	m.set("core_us_per_op", us(pct(cpus, 0.5))/float64(len(items)))
	m.set("peak_heap_mb", peaks[len(peaks)/2])
	m.set("error_rate", float64(tl.failed)/float64(tl.attempted))
	m.set("heap_mb", m["peak_heap_mb"])
	if !trace {
		return m, tl, nil
	}

	p := first
	processMetrics(m, pr0, pr1, len(items))
	checkMetrics(m, p, workers)
	traced, err := classify(cl, items, tr)
	if err != nil {
		return m, tl, err
	}
	exhausted, err := verify(es, traced, false)
	tl.attempted += checks(traced)
	tl.failed += exhausted
	m.set("trace.overhead_pct", 100*(traced.wall.Seconds()-p.wall.Seconds())/p.wall.Seconds())
	return m, tl, err
}

func elapsed(r checker.ItemResult) time.Duration {
	var d time.Duration
	for _, res := range r.Results {
		d += res.Elapsed
	}
	return d
}

func checks(p pass) int {
	n := 0
	for _, r := range p.results {
		n += len(r.Results)
	}
	return n
}

// checkMetrics reports the engine, pruner and worker-pool metrics of
// one pass.
func checkMetrics(m metrics, p pass, workers int) {
	var nodes, cut int64
	var pruned checker.PruneStats
	var busy time.Duration
	exhausted := 0
	per := map[string]time.Duration{}
	for _, r := range p.results {
		for name, res := range r.Results {
			nodes += res.Explored
			pruned.Add(res.Pruned)
			busy += res.Elapsed
			per[name] += res.Elapsed
			if res.Exhausted != "" {
				exhausted++
			}
		}
	}
	cut = pruned.Total()
	m.set("check.nodes", float64(nodes))
	m.set("check.canon_hits", float64(pruned.CanonHits))
	m.set("check.sleep_skips", float64(pruned.SleepSkips))
	m.set("check.sym_skips", float64(pruned.SymSkips))
	m.set("check.prune_ratio", float64(cut)/float64(nodes+cut))
	m.set("check.ns_per_node", float64(busy.Nanoseconds())/float64(nodes))
	m.set("check.pool_busy", busy.Seconds()/(p.wall.Seconds()*float64(workers)))
	m.set("check.exhausted", float64(exhausted))
	for _, name := range checkedCriteria {
		m.set("check.ms."+name, float64(per[name])/float64(time.Millisecond))
	}
}

// checkedCriteria are the criteria whose time is reported per layer.
var checkedCriteria = []string{"CC", "CCv", "PC", "WCC", "SC", "EC", "UC"}
