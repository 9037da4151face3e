package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"github.com/paper-repro/ccbm/cc"
)

// callers is the number of open-loop callers of every serving workload:
// one per core of the 2-core host the benchmark was sized on.
const callers = 2

// op is one generated operation on the object with index idx.
type op struct {
	idx    int
	obj    string
	in     cc.Input
	update bool
}

type objectDef struct{ name, adt string }

// A model generates a serving workload's ops and knows what their
// outputs may be. gen and check are called by caller c in program
// order; gen records every write in the model before the op is sent,
// so a concurrent read by the other caller can be checked against it.
// final checks the converged state, reading any replica through read.
type model interface {
	objects() []objectDef
	gen(c int, rng *rand.Rand) op
	check(c int, o op, out cc.Output) error
	final(read func(replica int, obj string, in cc.Input) (cc.Output, error), replicas int) error
}

// issued is the set of register values written to each object; every
// write carries a value unique in the run, so a read of any other
// non-zero value is an output the service made up.
type issued struct {
	mu   sync.Mutex
	vals map[[2]int]bool
	next [callers]int
}

func (r *issued) write(c, idx int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.vals == nil {
		r.vals = map[[2]int]bool{}
	}
	r.next[c]++
	v := r.next[c]*callers + c
	r.vals[[2]int{idx, v}] = true
	return v
}

func (r *issued) valid(idx int, out cc.Output) error {
	v, ok := scalar(out)
	if !ok {
		return fmt.Errorf("register %d: read %v, want one value", idx, out)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v != 0 && !r.vals[[2]int{idx, v}] {
		return fmt.Errorf("register %d: read %d, which no one wrote", idx, v)
	}
	return nil
}

func scalar(out cc.Output) (int, bool) {
	if out.Bot || len(out.Vals) != 1 {
		return 0, false
	}
	return out.Vals[0], true
}

// readsModel is reads-cc: 95% reads over a zipf-hot population of
// registers (even indices) and grow-only sets (odd indices).
type readsModel struct {
	n    int
	regs issued
	mu   sync.Mutex
	adds map[[2]int]bool          // (set, element) added by anyone
	own  [callers]map[[2]int]bool // ... by one caller, which must read it back
	zipf [callers]*rand.Zipf
	src  [callers]*rand.Rand // the rng each caller's zipf draws from
}

const setElems = 32 // elements a set draws from, so sets stay small

func newReadsModel(n int) *readsModel {
	m := &readsModel{n: n, adds: map[[2]int]bool{}}
	for c := range m.own {
		m.own[c] = map[[2]int]bool{}
	}
	return m
}

func (m *readsModel) name(i int) string {
	if i%2 == 0 {
		return fmt.Sprintf("reg%d", i)
	}
	return fmt.Sprintf("set%d", i)
}

func (m *readsModel) objects() []objectDef {
	out := make([]objectDef, m.n)
	for i := range out {
		adt := "Register"
		if i%2 == 1 {
			adt = "GSet"
		}
		out[i] = objectDef{m.name(i), adt}
	}
	return out
}

func (m *readsModel) gen(c int, rng *rand.Rand) op {
	if m.src[c] != rng {
		// Each phase hands its callers fresh rngs; drawing the keys from
		// the phase's rng makes the same phase seed give the same ops.
		m.src[c], m.zipf[c] = rng, rand.NewZipf(rng, 1.1, 1, uint64(m.n-1))
	}
	i := int(m.zipf[c].Uint64())
	o := op{idx: i, obj: m.name(i)}
	write := rng.Float64() < 0.05
	switch {
	case i%2 == 0 && write:
		o.in, o.update = cc.NewInput("w", m.regs.write(c, i)), true
	case i%2 == 0:
		o.in = cc.NewInput("r")
	case write:
		v := rng.Intn(setElems)
		m.mu.Lock()
		m.adds[[2]int{i, v}], m.own[c][[2]int{i, v}] = true, true
		m.mu.Unlock()
		o.in, o.update = cc.NewInput("add", v), true
	default:
		o.in = cc.NewInput("has", rng.Intn(setElems))
	}
	return o
}

func (m *readsModel) check(c int, o op, out cc.Output) error {
	switch o.in.Method {
	case "r":
		return m.regs.valid(o.idx, out)
	case "has":
		v, ok := scalar(out)
		key := [2]int{o.idx, o.in.Args[0]}
		m.mu.Lock()
		added, mine := m.adds[key], m.own[c][key]
		m.mu.Unlock()
		switch {
		case !ok:
			return fmt.Errorf("%s: has → %v", o.obj, out)
		case v == 1 && !added:
			return fmt.Errorf("%s: has(%d) = 1 but it was never added", o.obj, key[1])
		case v == 0 && mine:
			return fmt.Errorf("%s: has(%d) = 0 after this session added it (read-your-writes)", o.obj, key[1])
		}
	}
	return nil
}

func (m *readsModel) final(read func(int, string, cc.Input) (cc.Output, error), replicas int) error {
	for r := 0; r < replicas; r++ {
		for i := 0; i < m.n; i++ {
			if i%2 == 0 {
				out, err := read(r, m.name(i), cc.NewInput("r"))
				if err == nil {
					err = m.regs.valid(i, out)
				}
				if err != nil {
					return err
				}
				continue
			}
			var want []int
			for v := 0; v < setElems; v++ {
				if m.adds[[2]int{i, v}] {
					want = append(want, v)
				}
			}
			if err := readSet(read, r, m.name(i), want); err != nil {
				return err
			}
		}
	}
	return nil
}

// readSet checks that a set object on one replica holds exactly want.
func readSet(read func(int, string, cc.Input) (cc.Output, error), r int, obj string, want []int) error {
	out, err := read(r, obj, cc.NewInput("elems"))
	if err != nil {
		return err
	}
	if !slices.Equal(out.Vals, want) {
		return fmt.Errorf("%s on replica %d: elems %v, want %v", obj, r, out.Vals, want)
	}
	return nil
}

// writesModel is writes-ccv: 80% inc/dec and 20% reads on uniform
// counters. A get by one caller must read its own updates plus a prefix
// of the other caller's updates to that counter: the other's updates
// reach a replica in that caller's program order.
type writesModel struct {
	n      int
	mu     sync.Mutex
	deltas [callers]map[int][]int // per caller, per counter, signed amounts in program order
	own    [callers]map[int]int   // per caller, per counter, sum of its own amounts
}

func newWritesModel(n int) *writesModel {
	m := &writesModel{n: n}
	for c := range m.deltas {
		m.deltas[c], m.own[c] = map[int][]int{}, map[int]int{}
	}
	return m
}

func (m *writesModel) objects() []objectDef {
	out := make([]objectDef, m.n)
	for i := range out {
		out[i] = objectDef{fmt.Sprintf("ctr%d", i), "Counter"}
	}
	return out
}

func (m *writesModel) gen(c int, rng *rand.Rand) op {
	i := rng.Intn(m.n)
	o := op{idx: i, obj: fmt.Sprintf("ctr%d", i)}
	p := rng.Float64()
	if p >= 0.8 {
		o.in = cc.NewInput("get")
		return o
	}
	a, method := 1+rng.Intn(5), "inc"
	if p >= 0.4 {
		a, method = -a, "dec"
	}
	m.mu.Lock()
	m.deltas[c][i] = append(m.deltas[c][i], a)
	m.own[c][i] += a
	m.mu.Unlock()
	o.in, o.update = cc.NewInput(method, max(a, -a)), true
	return o
}

func (m *writesModel) check(c int, o op, out cc.Output) error {
	if o.update {
		return nil
	}
	v, ok := scalar(out)
	if !ok {
		return fmt.Errorf("%s: get → %v", o.obj, out)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rest := v - m.own[c][o.idx]
	sum := 0
	if rest == 0 {
		return nil
	}
	for _, d := range m.deltas[1-c][o.idx] {
		if sum += d; sum == rest {
			return nil
		}
	}
	return fmt.Errorf("%s: get = %d is not this session's updates plus a prefix of the other's", o.obj, v)
}

func (m *writesModel) final(read func(int, string, cc.Input) (cc.Output, error), replicas int) error {
	for i := 0; i < m.n; i++ {
		want := m.own[0][i] + m.own[1][i]
		for r := 0; r < replicas; r++ {
			obj := fmt.Sprintf("ctr%d", i)
			out, err := read(r, obj, cc.NewInput("get"))
			if err != nil {
				return err
			}
			if v, _ := scalar(out); v != want {
				return fmt.Errorf("%s on replica %d: %d, want %d", obj, r, v, want)
			}
		}
	}
	return nil
}

// cartsModel is carts-ae: each caller fills and empties its own carts
// (add/remove sets only it writes, so every read must equal exactly what
// it put there) beside a catalog of registers both read and write.
type cartsModel struct {
	carts, items int
	catalog      issued
	mu           sync.Mutex
	content      [callers][]map[int]bool
}

func newCartsModel(carts, items int) *cartsModel {
	m := &cartsModel{carts: carts, items: items}
	for c := range m.content {
		m.content[c] = make([]map[int]bool, carts)
		for k := range m.content[c] {
			m.content[c][k] = map[int]bool{}
		}
	}
	return m
}

func cartName(c, k int) string { return fmt.Sprintf("cart%d-%d", c, k) }

func (m *cartsModel) objects() []objectDef {
	var out []objectDef
	for c := 0; c < callers; c++ {
		for k := 0; k < m.carts; k++ {
			out = append(out, objectDef{cartName(c, k), "RWSet"})
		}
	}
	for i := 0; i < m.items; i++ {
		out = append(out, objectDef{fmt.Sprintf("item%d", i), "Register"})
	}
	return out
}

func (m *cartsModel) gen(c int, rng *rand.Rand) op {
	p := rng.Float64()
	if p >= 0.55 {
		i := rng.Intn(m.items)
		o := op{idx: i, obj: fmt.Sprintf("item%d", i), in: cc.NewInput("r")}
		if p >= 0.95 {
			o.in, o.update = cc.NewInput("w", m.catalog.write(c, i)), true
		}
		return o
	}
	k := rng.Intn(m.carts)
	o := op{idx: k, obj: cartName(c, k), in: cc.NewInput("elems")}
	if p < 0.25 {
		v, add := rng.Intn(setElems), p < 0.20
		m.mu.Lock()
		m.content[c][k][v] = add
		m.mu.Unlock()
		o.in, o.update = cc.NewInput("add", v), true
		if !add {
			o.in = cc.NewInput("rem", v)
		}
	}
	return o
}

func (m *cartsModel) want(c, k int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for v := 0; v < setElems; v++ {
		if m.content[c][k][v] {
			out = append(out, v)
		}
	}
	return out
}

func (m *cartsModel) check(c int, o op, out cc.Output) error {
	switch o.in.Method {
	case "r":
		return m.catalog.valid(o.idx, out)
	case "elems":
		if want := m.want(c, o.idx); !slices.Equal(out.Vals, want) {
			return fmt.Errorf("%s: elems %v, but this session's own writes leave %v (read-your-writes)", o.obj, out.Vals, want)
		}
	}
	return nil
}

func (m *cartsModel) final(read func(int, string, cc.Input) (cc.Output, error), replicas int) error {
	for r := 0; r < replicas; r++ {
		for c := 0; c < callers; c++ {
			for k := 0; k < m.carts; k++ {
				if err := readSet(read, r, cartName(c, k), m.want(c, k)); err != nil {
					return err
				}
			}
		}
		for i := 0; i < m.items; i++ {
			out, err := read(r, fmt.Sprintf("item%d", i), cc.NewInput("r"))
			if err == nil {
				err = m.catalog.valid(i, out)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
