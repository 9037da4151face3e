package client_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

// fakeTransport scripts the server side of the self-healing tests:
// each Invoke is answered by the next step function, which sees the
// request the healing layer actually built (replica pin, frontiers).
type fakeTransport struct {
	mu        sync.Mutex
	steps     []func(*wire.InvokeRequest) (*wire.InvokeResponse, error)
	calls     int
	pins      []*int // req.Replica per call, copied
	replicas  int    // Healthz topology
	ringCalls int    // Ring fetches (stale-ring refresh probe)
}

func (f *fakeTransport) Invoke(_ context.Context, req *wire.InvokeRequest) (*wire.InvokeResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.calls
	f.calls++
	if req.Replica != nil {
		r := *req.Replica
		f.pins = append(f.pins, &r)
	} else {
		f.pins = append(f.pins, nil)
	}
	if i < len(f.steps) {
		return f.steps[i](req)
	}
	return &wire.InvokeResponse{Output: "ok"}, nil
}

func (f *fakeTransport) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *fakeTransport) Healthz(context.Context) (*wire.HealthzResponse, error) {
	return &wire.HealthzResponse{OK: true, Replicas: f.replicas}, nil
}

func (f *fakeTransport) CreateObject(context.Context, *wire.CreateObjectRequest) error { return nil }
func (f *fakeTransport) Batch(context.Context, *wire.BatchRequest) (*wire.BatchResponse, error) {
	return nil, errors.New("fake: no batch")
}
func (f *fakeTransport) Crash(context.Context, *wire.CrashRequest) error { return nil }
func (f *fakeTransport) Staleness(context.Context) (*wire.StalenessResponse, error) {
	return &wire.StalenessResponse{Protocol: wire.ProtocolVersion}, nil
}
func (f *fakeTransport) Fault(context.Context, *wire.FaultRequest) error { return nil }
func (f *fakeTransport) Ring(context.Context) (*wire.RingResponse, error) {
	f.mu.Lock()
	f.ringCalls++
	f.mu.Unlock()
	return &wire.RingResponse{Epoch: 1, Protocol: wire.ProtocolVersion}, nil
}
func (f *fakeTransport) Stats(context.Context) (*wire.StatsResponse, error) {
	return &wire.StatsResponse{}, nil
}
func (f *fakeTransport) Monitor(context.Context, bool) (*wire.MonitorResponse, error) {
	return &wire.MonitorResponse{}, nil
}
func (f *fakeTransport) MonitorStream(context.Context) (<-chan wire.Verdict, error) {
	ch := make(chan wire.Verdict)
	close(ch)
	return ch, nil
}
func (f *fakeTransport) Readyz(context.Context) (*wire.ReadyzResponse, error) {
	return &wire.ReadyzResponse{Ready: true}, nil
}
func (f *fakeTransport) Close() error { return nil }

func unavailable(*wire.InvokeRequest) (*wire.InvokeResponse, error) {
	return nil, wire.Errf(wire.CodeUnavailable, "fake: replica down")
}

// TestRetryTransientFailure pins the bounded-retry contract: both a
// typed unavailable error and a raw transport error are retried with
// backoff, the op succeeds within its attempt budget, and the retry
// counter records exactly the re-attempts.
func TestRetryTransientFailure(t *testing.T) {
	ft := &fakeTransport{
		steps: []func(*wire.InvokeRequest) (*wire.InvokeResponse, error){
			unavailable,
			func(*wire.InvokeRequest) (*wire.InvokeResponse, error) {
				return nil, errors.New("connection reset") // transport-level
			},
		},
	}
	cli, err := client.New(ft, client.WithRetry(4, time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Session(0).Call(context.Background(), "o", "inc", 1); err != nil {
		t.Fatalf("op failed despite retry budget: %v", err)
	}
	if got := ft.count(); got != 3 {
		t.Fatalf("transport saw %d calls, want 3", got)
	}
	if m := cli.Metrics(); m.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", m.Retries)
	}
}

// TestRetryBudgetExhausted pins the failure side: a persistently
// unavailable server fails the op with the last typed error after
// exactly maxAttempts calls.
func TestRetryBudgetExhausted(t *testing.T) {
	ft := &fakeTransport{steps: []func(*wire.InvokeRequest) (*wire.InvokeResponse, error){
		unavailable, unavailable, unavailable,
	}}
	cli, err := client.New(ft, client.WithRetry(3, time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, callErr := cli.Session(0).Call(context.Background(), "o", "inc", 1)
	var werr *wire.Error
	if !errors.As(callErr, &werr) || werr.Code != wire.CodeUnavailable {
		t.Fatalf("want typed unavailable, got %v", callErr)
	}
	if got := ft.count(); got != 3 {
		t.Fatalf("transport saw %d calls, want 3", got)
	}
}

// TestFailoverRotatesAndCarriesFrontier pins the failover semantics:
// after a replica failure the session re-attaches to the next replica
// (round-robin over the healthz topology) and re-sends its
// accumulated causal frontier, so read-your-writes survives the move.
func TestFailoverRotatesAndCarriesFrontier(t *testing.T) {
	var gotFrontiers []wire.ShardFrontier
	ft := &fakeTransport{replicas: 3}
	ft.steps = []func(*wire.InvokeRequest) (*wire.InvokeResponse, error){
		// Call 1 (update) succeeds on the default replica, echoing a
		// frontier.
		func(*wire.InvokeRequest) (*wire.InvokeResponse, error) {
			return &wire.InvokeResponse{Output: "ok", Frontier: &wire.ShardFrontier{Shard: 0, VC: []int{5, 0, 0}}}, nil
		},
		// Call 2 attempt 1 fails: session 1's replica crashed.
		unavailable,
		// Call 2 attempt 2 lands on the rotated replica and must carry
		// the frontier from call 1.
		func(req *wire.InvokeRequest) (*wire.InvokeResponse, error) {
			gotFrontiers = append([]wire.ShardFrontier(nil), req.Frontiers...)
			return &wire.InvokeResponse{Output: "ok", Frontier: &wire.ShardFrontier{Shard: 0, VC: []int{5, 2, 0}}}, nil
		},
	}
	cli, err := client.New(ft,
		client.WithRetry(4, time.Millisecond, 2*time.Millisecond),
		client.WithFailover())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	s := cli.Session(1)
	if _, err := s.Call(context.Background(), "o", "w", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(context.Background(), "o", "w", 6); err != nil {
		t.Fatalf("op failed despite failover: %v", err)
	}
	m := cli.Metrics()
	if m.Failovers < 1 {
		t.Fatalf("Failovers = %d, want >= 1", m.Failovers)
	}
	if m.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", m.Retries)
	}
	// The rotated attempt was pinned away from the default replica 1.
	last := ft.pins[len(ft.pins)-1]
	if last == nil || *last == 1 {
		t.Fatalf("last call's replica pin = %v, want an explicit non-1 pin", last)
	}
	if len(gotFrontiers) != 1 || gotFrontiers[0].Shard != 0 {
		t.Fatalf("rotated attempt carried frontiers %+v, want the shard-0 frontier", gotFrontiers)
	}
	if got := gotFrontiers[0].VC; len(got) != 3 || got[0] != 5 {
		t.Fatalf("re-attached VC = %v, want [5 0 0]", got)
	}
}

// TestBreakerFastFailAndProbe pins the circuit breaker: threshold
// consecutive failures open it, further ops fail fast without a
// transport call, and after the cooldown one probe closes it again.
func TestBreakerFastFailAndProbe(t *testing.T) {
	ft := &fakeTransport{replicas: 1} // one replica: failover cannot rotate
	ft.steps = []func(*wire.InvokeRequest) (*wire.InvokeResponse, error){
		unavailable, unavailable, // trip the breaker (threshold 2)
	}
	cli, err := client.New(ft,
		client.WithFailover(), // teaches the topology on failure
		client.WithBreaker(2, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	s := cli.Session(0)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := s.Call(ctx, "o", "inc", 1); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	if got := ft.count(); got != 2 {
		t.Fatalf("transport saw %d calls before trip, want 2", got)
	}
	// Open: the next op must fail fast, without touching the wire.
	_, fastErr := s.Call(ctx, "o", "inc", 1)
	var werr *wire.Error
	if !errors.As(fastErr, &werr) || werr.Code != wire.CodeUnavailable {
		t.Fatalf("fast-fail error = %v, want typed unavailable", fastErr)
	}
	if got := ft.count(); got != 2 {
		t.Fatalf("open breaker let a call through: %d transport calls", got)
	}
	m := cli.Metrics()
	if m.BreakerOpens != 1 || m.BreakerFastFails < 1 {
		t.Fatalf("BreakerOpens = %d, BreakerFastFails = %d; want 1, >=1", m.BreakerOpens, m.BreakerFastFails)
	}
	// Cooldown elapses: the probe goes through (script exhausted →
	// success) and closes the breaker for the op after it.
	time.Sleep(60 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, err := s.Call(ctx, "o", "inc", 1); err != nil {
			t.Fatalf("post-cooldown call %d failed: %v", i, err)
		}
	}
	if got := ft.count(); got != 4 {
		t.Fatalf("transport saw %d calls after probe, want 4", got)
	}
}

// TestSelfHealingLoopback is the end-to-end check over a real
// cluster: a session whose home replica crash-stops keeps operating
// (retry + failover), read-your-writes holds across the move, and the
// restarted replica converges back.
func TestSelfHealingLoopback(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			c, err := cluster.New(cluster.Config{
				Criterion: "CC",
				Replicas:  3,
				Resync:    true,
				Monitor:   cluster.MonitorConfig{Disable: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			opts := []client.Option{
				client.WithRetry(6, time.Millisecond, 20*time.Millisecond),
				client.WithFailover(),
				client.WithBreaker(4, 200*time.Millisecond),
			}
			if batched {
				opts = append(opts, client.WithBatching(8))
			}
			cli, err := client.New(client.NewLoopback(c), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			ctx := context.Background()
			if err := cli.CreateObject(ctx, "reg", "Register"); err != nil {
				t.Fatal(err)
			}
			s := cli.Session(1) // home replica 1
			if _, err := s.Call(ctx, "reg", "w", 7); err != nil {
				t.Fatal(err)
			}
			if err := c.StopReplica(cluster.AllShards, 1); err != nil {
				t.Fatal(err)
			}
			// The write rides retry+failover to a live replica; the read
			// must still observe it there (frontier re-attach).
			if _, err := s.Call(ctx, "reg", "w", 8); err != nil {
				t.Fatalf("write during crash failed: %v", err)
			}
			out, err := s.Call(ctx, "reg", "r")
			if err != nil {
				t.Fatalf("read during crash failed: %v", err)
			}
			if len(out.Vals) != 1 || out.Vals[0] != 8 {
				t.Fatalf("read-your-writes across failover: got %+v, want [8]", out)
			}
			if m := cli.Metrics(); m.Failovers < 1 {
				t.Fatalf("Failovers = %d, want >= 1 (metrics %+v)", m.Failovers, m)
			}
			if err := c.RestartReplica(cluster.AllShards, 1); err != nil {
				t.Fatal(err)
			}
			if err := c.AwaitConvergence(5 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}
