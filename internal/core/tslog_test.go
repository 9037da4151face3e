package core

import (
	"testing"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/spec"
)

// stepCounter wraps an ADT and counts its transitions.
type stepCounter struct {
	spec.ADT
	steps int
}

func (c *stepCounter) Step(q spec.State, in spec.Input) (spec.State, spec.Output) {
	c.steps++
	return c.ADT.Step(q, in)
}

// TestTSLogPrefixReplayAdvancesCache pins that the replay cache
// advances on every prefix replay, not only on full ones: an
// update-only timestamp-mode run replays each update's own prefix
// right after inserting it, and must fold in linear, not quadratic,
// total work.
func TestTSLogPrefixReplayAdvancesCache(t *testing.T) {
	const n = 500
	ctr := &stepCounter{ADT: adt.Counter{}}
	l := newTSLog[int](ctr, func(a, b int) bool { return a < b })
	for i := 0; i < n; i++ {
		pos := l.insert(i, spec.NewInput("inc", 1))
		l.replay(pos)
	}
	if ctr.steps > 2*n {
		t.Fatalf("%d in-order inserts with own-prefix replays took %d steps, want at most %d", n, ctr.steps, 2*n)
	}
	if _, out := ctr.Step(l.state(), spec.NewInput("get")); !out.Equal(spec.IntOutput(n)) {
		t.Fatalf("get = %v, want %d", out, n)
	}
}
