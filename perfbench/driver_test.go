package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"
)

// stallCaller answers at once except for its stallAt-th op, which takes
// stall.
type stallCaller struct {
	stallAt int
	stall   time.Duration
	k       int
}

func (c *stallCaller) prepare(k int) { c.k = k }

func (c *stallCaller) do() (bool, error) {
	if c.k == c.stallAt {
		time.Sleep(c.stall)
	}
	return false, nil
}

func (c *stallCaller) verify() {}

// A stall is charged to every op that was due while it lasted on the
// intended clock, and to neither the service clock of those ops nor the
// driver's lateness.
func TestStallChargedToIntendedClockOnly(t *testing.T) {
	const stall = 50 * time.Millisecond
	c := &stallCaller{stallAt: 100, stall: stall}
	per, _ := openLoop(rand.New(rand.NewSource(1)), 1000, 400*time.Millisecond, time.Second, []caller{c})
	ss := per[0]
	if len(ss) < 200 {
		t.Fatalf("only %d arrivals", len(ss))
	}
	stalled := ss[c.stallAt]
	if stalled.service() < stall {
		t.Fatalf("stalled op took %v on the service clock, want ≥ %v", stalled.service(), stall)
	}
	queued := 0
	for _, s := range ss[c.stallAt+1:] {
		if s.intended >= stalled.done {
			break
		}
		queued++
		if s.latency() < stalled.done-s.intended {
			t.Errorf("op due at %v: latency %v does not charge the stall ending at %v", s.intended, s.latency(), stalled.done)
		}
		if s.service() > 10*time.Millisecond {
			t.Errorf("op due at %v: service time %v charges the stall", s.intended, s.service())
		}
	}
	if queued < 10 {
		t.Fatalf("only %d ops queued behind the stall", queued)
	}
	for _, f := range []func(sample) time.Duration{sample.late, sample.service} {
		if p99 := pct(sortedBy(ss, f), 0.99); p99 > 10*time.Millisecond {
			t.Errorf("p99 %v on a clock that must not charge the stall", p99)
		}
	}
	if late := pct(sortedBy(ss, sample.late), 1); late > stall/2 {
		t.Errorf("max lateness %v absorbs the stall", late)
	}
	if p99 := pct(sortedBy(ss, sample.latency), 0.99); p99 < stall/2 {
		t.Errorf("p99 on the intended clock %v does not show the stall", p99)
	}
}

func TestPct(t *testing.T) {
	v := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 5}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := pct(v, c.p); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// The metrics the program prints are exactly those BENCHMARK.json names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%d metrics, BENCHMARK.json has %d", len(c.got), len(c.want))
		}
		for i, d := range c.got {
			if d.name != c.want[i].Name || d.unit != c.want[i].Unit {
				t.Errorf("metric %d: %s %s, BENCHMARK.json has %s %s", i, d.name, d.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
	for _, w := range b.Workloads {
		if _, ok := layers[w.Name]; !ok {
			t.Errorf("workload %s has no layer record", w.Name)
		}
	}
	if len(b.Workloads) != len(layers) {
		t.Errorf("%d workloads, BENCHMARK.json has %d", len(layers), len(b.Workloads))
	}
}
