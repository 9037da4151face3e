package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/spec"
)

// newStationGroup wires n stations over a live transport.
func newStationGroup(t *testing.T, n int, mode Mode, cfg StationConfig) (*net.Live, []*Station) {
	t.Helper()
	lv := net.NewLive(n)
	sts := make([]*Station, n)
	for i := 0; i < n; i++ {
		sts[i] = NewStation(lv, i, mode, cfg)
	}
	return lv, sts
}

func ensureAll(t *testing.T, sts []*Station, name, adtName string) {
	t.Helper()
	for _, s := range sts {
		if err := s.EnsureObject(name, adtName); err != nil {
			t.Fatalf("EnsureObject(%s, %s): %v", name, adtName, err)
		}
	}
}

// settleGroup flushes every pending batch and waits for quiescence:
// with no new invocations, once every station is observed with no
// pending batch and no flush in flight, a final Quiesce covers any
// straggler broadcast (flushes run entirely under flushMu).
func settleGroup(lv *net.Live, sts []*Station) {
	for {
		for _, s := range sts {
			s.Flush()
		}
		lv.Quiesce()
		quiet := true
		for _, s := range sts {
			s.flushMu.Lock()
			s.batchMu.Lock()
			if len(s.pending) > 0 {
				quiet = false
			}
			s.batchMu.Unlock()
			s.flushMu.Unlock()
		}
		if quiet {
			lv.Quiesce()
			return
		}
	}
}

// TestStationConvergence drives concurrent sessions against every mode
// and checks that all stations converge per object once quiescent.
func TestStationConvergence(t *testing.T) {
	objects := map[string]string{
		"cart:1":  "Counter",
		"seen:2":  "GSet",
		"prof:3":  "Register",
		"queue:4": "Queue2",
	}
	for _, mode := range []Mode{ModeCC, ModePC, ModeEC, ModeCCv} {
		t.Run(mode.String(), func(t *testing.T) {
			lv, sts := newStationGroup(t, 3, mode, StationConfig{BatchOps: 4})
			defer lv.Close()
			for name, adtName := range objects {
				ensureAll(t, sts, name, adtName)
			}
			var wg sync.WaitGroup
			for sess := 0; sess < 6; sess++ {
				wg.Add(1)
				go func(sess int) {
					defer wg.Done()
					st := sts[sess%3]
					for i := 0; i < 40; i++ {
						var err error
						switch i % 4 {
						case 0:
							_, err = st.Invoke("cart:1", spec.NewInput("inc", 1))
						case 1:
							_, err = st.Invoke("seen:2", spec.NewInput("add", sess))
						case 2:
							_, err = st.Invoke("prof:3", spec.NewInput("w", sess*100+i))
						case 3:
							_, err = st.Invoke("queue:4", spec.NewInput("push", sess*1000+i))
						}
						if err != nil {
							t.Errorf("session %d: %v", sess, err)
							return
						}
					}
				}(sess)
			}
			wg.Wait()
			settleGroup(lv, sts)
			for name := range objects {
				// CC and PC order only causally/FIFO-related updates, so
				// replicas of non-commutative types may legitimately end in
				// different states; convergence of every object is the
				// timestamp modes' guarantee (EC, CCv). The commutative
				// objects (inc-only Counter, add-only GSet) must converge
				// under every mode.
				commutative := name == "cart:1" || name == "seen:2"
				if !commutative && mode != ModeEC && mode != ModeCCv {
					continue
				}
				key0, ok := sts[0].StateKey(name)
				if !ok {
					t.Fatalf("station 0 lost object %s", name)
				}
				for _, st := range sts[1:] {
					key, ok := st.StateKey(name)
					if !ok || key != key0 {
						t.Fatalf("mode %v object %s diverged: %q vs %q", mode, name, key0, key)
					}
				}
			}
		})
	}
}

// TestStationBatchingAmortizes pins that group commit amortizes
// broadcasts: updates that arrive while a flush is in flight share
// batches. The test holds the flush lock until all of them are
// pending, so the outcome does not depend on scheduling.
func TestStationBatchingAmortizes(t *testing.T) {
	const batchOps, sessions = 16, 40
	lv, sts := newStationGroup(t, 2, ModeCC, StationConfig{BatchOps: batchOps})
	defer lv.Close()
	ensureAll(t, sts, "o", "Counter")
	st := sts[0]
	st.flushMu.Lock()
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st.Invoke("o", spec.NewInput("inc", 1)); err != nil {
				t.Error(err)
			}
		}()
	}
	for {
		st.batchMu.Lock()
		n := len(st.pending)
		st.batchMu.Unlock()
		if n == sessions {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st.flushMu.Unlock()
	wg.Wait()
	settleGroup(lv, sts)
	stats := st.Stats()
	if stats.BatchedOps != sessions {
		t.Fatalf("BatchedOps = %d, want %d", stats.BatchedOps, sessions)
	}
	if want := int64((sessions + batchOps - 1) / batchOps); stats.Broadcasts > want {
		t.Fatalf("%d broadcasts for %d updates, want at most %d", stats.Broadcasts, sessions, want)
	}
	out, err := st.Invoke("o", spec.NewInput("get"))
	if err != nil {
		t.Fatal(err)
	}
	if want := spec.IntOutput(sessions); !out.Equal(want) {
		t.Fatalf("get = %v, want %v", out, want)
	}
}

// TestStationLoneUpdateNotDelayed pins that batching adds no wait of
// its own: with no flush in flight, an update is broadcast and
// applied locally before InvokeAsync returns, in every mode.
func TestStationLoneUpdateNotDelayed(t *testing.T) {
	for _, mode := range []Mode{ModeCC, ModePC, ModeEC, ModeCCv} {
		t.Run(mode.String(), func(t *testing.T) {
			lv, sts := newStationGroup(t, 3, mode, StationConfig{BatchOps: 32})
			defer lv.Close()
			ensureAll(t, sts, "c", "Counter")
			before := sts[0].Stats().Applied
			wait, err := sts[0].InvokeAsync("c", spec.NewInput("inc", 1))
			if err != nil {
				t.Fatal(err)
			}
			if got := sts[0].Stats().Applied; got != before+1 {
				t.Fatalf("Applied = %d when InvokeAsync returned, want %d", got, before+1)
			}
			wait()
		})
	}
}

// TestStationUpdateOutputs pins per-op output routing under
// concurrency: every push output is ⊥, every pop obtains a distinct
// value or ⊥, and the multiset of popped values is a subset of pushes.
func TestStationUpdateOutputs(t *testing.T) {
	lv, sts := newStationGroup(t, 2, ModeCCv, StationConfig{BatchOps: 4})
	defer lv.Close()
	ensureAll(t, sts, "q", "Queue")
	var mu sync.Mutex
	popped := map[int]int{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := sts[g%2]
			for i := 0; i < 30; i++ {
				if g%2 == 0 {
					out, err := st.Invoke("q", spec.NewInput("push", g*1000+i))
					if err != nil || !out.Equal(spec.Bot) {
						t.Errorf("push: out=%v err=%v", out, err)
						return
					}
				} else {
					out, err := st.Invoke("q", spec.NewInput("pop"))
					if err != nil {
						t.Error(err)
						return
					}
					if !out.Equal(spec.Bot) {
						mu.Lock()
						popped[out.Vals[0]]++
						mu.Unlock()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	settleGroup(lv, sts)
	for v, n := range popped {
		if n != 1 {
			t.Fatalf("value %d popped %d times", v, n)
		}
	}
}

// TestStationCompact folds the stable prefix on CCv and preserves the
// observable state.
func TestStationCompact(t *testing.T) {
	lv, sts := newStationGroup(t, 3, ModeCCv, StationConfig{BatchOps: 1})
	defer lv.Close()
	ensureAll(t, sts, "c", "Counter")
	// Every station broadcasts so every origin's timestamp advances
	// everywhere (stability needs to hear from all).
	for round := 0; round < 5; round++ {
		for _, st := range sts {
			if _, err := st.Invoke("c", spec.NewInput("inc", 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	settleGroup(lv, sts)
	before, _ := sts[0].StateKey("c")
	if n := sts[0].Compact(); n == 0 {
		t.Fatal("Compact folded nothing despite all origins heard from")
	}
	after, _ := sts[0].StateKey("c")
	if before != after {
		t.Fatalf("Compact changed the state: %q -> %q", before, after)
	}
	if st := sts[0].Stats(); st.LogLen >= 15 {
		t.Fatalf("log not compacted: %d entries", st.LogLen)
	}
	// EC must refuse: unordered dissemination has no stable prefix.
	lvEC, stsEC := newStationGroup(t, 2, ModeEC, StationConfig{})
	defer lvEC.Close()
	ensureAll(t, stsEC, "c", "Counter")
	if _, err := stsEC[0].Invoke("c", spec.NewInput("inc", 1)); err != nil {
		t.Fatal(err)
	}
	settleGroup(lvEC, stsEC)
	if n := stsEC[0].Compact(); n != 0 {
		t.Fatalf("EC Compact folded %d entries, want 0", n)
	}
}

// TestStationClose: an update racing Close either completes or fails
// with ErrClosed, later updates fail, queries still serve.
func TestStationClose(t *testing.T) {
	lv, sts := newStationGroup(t, 2, ModeCC, StationConfig{BatchOps: 32})
	defer lv.Close()
	ensureAll(t, sts, "r", "Register")
	done := make(chan error, 1)
	go func() {
		_, err := sts[0].Invoke("r", spec.NewInput("w", 7))
		done <- err
	}()
	sts[0].Close()
	want := spec.IntOutput(7)
	if err := <-done; errors.Is(err, ErrClosed) {
		want = spec.IntOutput(0)
	} else if err != nil {
		t.Fatalf("update racing Close: %v", err)
	}
	if _, err := sts[0].Invoke("r", spec.NewInput("w", 8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("update after Close: err=%v, want ErrClosed", err)
	}
	if out, err := sts[0].Invoke("r", spec.NewInput("r")); err != nil || !out.Equal(want) {
		t.Fatalf("query after Close: out=%v err=%v, want %v", out, err, want)
	}
}

// TestStationUnknownObject pins the error path.
func TestStationUnknownObject(t *testing.T) {
	lv, sts := newStationGroup(t, 1, ModeCC, StationConfig{})
	defer lv.Close()
	if _, err := sts[0].Invoke("nope", spec.NewInput("r")); err == nil {
		t.Fatal("Invoke on unknown object succeeded")
	}
	if err := sts[0].EnsureObject("bad", "NotAnADT"); err == nil {
		t.Fatal("EnsureObject accepted an unknown ADT")
	}
}

// TestStationLazyRemoteCreation: an object created on one station only
// still materializes on its peers at first delivery.
func TestStationLazyRemoteCreation(t *testing.T) {
	lv, sts := newStationGroup(t, 2, ModeCC, StationConfig{})
	defer lv.Close()
	if err := sts[0].EnsureObject("solo", "Counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := sts[0].Invoke("solo", spec.NewInput("inc", 5)); err != nil {
		t.Fatal(err)
	}
	settleGroup(lv, sts)
	out, err := sts[1].Invoke("solo", spec.NewInput("get"))
	if err != nil {
		t.Fatalf("peer did not materialize the object: %v", err)
	}
	if !out.Equal(spec.IntOutput(5)) {
		t.Fatalf("peer state = %v, want 5", out)
	}
}

// TestStationManyObjectsManySessions is the kitchen-sink soak: mixed
// ADTs, many sessions, all four modes, convergence at the end. Kept
// small enough for -race in CI.
func TestStationManyObjectsManySessions(t *testing.T) {
	// Timestamp modes only: they are the ones that promise convergence
	// for the non-commutative types in the mix (Register, Stack).
	for _, mode := range []Mode{ModeEC, ModeCCv} {
		lv, sts := newStationGroup(t, 3, mode, StationConfig{BatchOps: 8})
		adts := []string{"Counter", "GSet", "Register", "RWSet", "Stack"}
		var names []string
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("obj-%d", i)
			names = append(names, name)
			ensureAll(t, sts, name, adts[i%len(adts)])
		}
		var wg sync.WaitGroup
		for sess := 0; sess < 9; sess++ {
			wg.Add(1)
			go func(sess int) {
				defer wg.Done()
				st := sts[sess%3]
				for i := 0; i < 25; i++ {
					name := names[(sess+i)%len(names)]
					var in spec.Input
					switch (sess + i) % len(adts) {
					case 0:
						in = spec.NewInput("inc", 1)
					case 1:
						in = spec.NewInput("add", i%8)
					case 2:
						in = spec.NewInput("w", sess*100+i)
					case 3:
						in = spec.NewInput("add", i%8)
					case 4:
						in = spec.NewInput("push", sess*100+i)
					}
					if _, err := st.Invoke(name, in); err != nil {
						t.Error(err)
						return
					}
				}
			}(sess)
		}
		wg.Wait()
		settleGroup(lv, sts)
		for _, name := range names {
			key0, _ := sts[0].StateKey(name)
			for _, st := range sts[1:] {
				if key, _ := st.StateKey(name); key != key0 {
					t.Fatalf("mode %v: object %s diverged", mode, name)
				}
			}
		}
		lv.Close()
	}
}
