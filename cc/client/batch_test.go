package client_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

// gateTransport answers batch RPCs with ⊥ for every op and records
// each request. Its first Batch call blocks until release is closed.
type gateTransport struct {
	client.Transport // unused methods panic
	started          chan struct{}
	release          chan struct{}

	mu   sync.Mutex
	reqs []*wire.BatchRequest
}

func (g *gateTransport) Batch(_ context.Context, req *wire.BatchRequest) (*wire.BatchResponse, error) {
	g.mu.Lock()
	g.reqs = append(g.reqs, req)
	first := len(g.reqs) == 1
	g.mu.Unlock()
	if first {
		close(g.started)
		<-g.release
	}
	resp := &wire.BatchResponse{}
	for _, grp := range req.Groups {
		res := wire.BatchGroupResult{Session: grp.Session}
		for range grp.Ops {
			res.Results = append(res.Results, wire.BatchResult{Output: &wire.InvokeResponse{Bot: true}})
		}
		resp.Groups = append(resp.Groups, res)
	}
	return resp, nil
}

func (g *gateTransport) Close() error { return nil }

func (g *gateTransport) requests() []*wire.BatchRequest {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*wire.BatchRequest(nil), g.reqs...)
}

// TestBatcherGroupCommit pins the client batcher's group commit: a
// lone op is sent at once; while the only inflight slot is busy, ops
// from other sessions accumulate; when it frees, exactly one more RPC
// carries all of them.
func TestBatcherGroupCommit(t *testing.T) {
	g := &gateTransport{started: make(chan struct{}), release: make(chan struct{})}
	cli, err := client.New(g, client.WithBatching(64), client.WithMaxInflight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	first := cli.Session(0).CallAsync("o", "inc", 1)
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("a lone op was not sent")
	}
	const sessions, each = 5, 2
	var futs []*client.Future
	for s := 1; s <= sessions; s++ {
		for i := 0; i < each; i++ {
			futs = append(futs, cli.Session(s).CallAsync("o", "inc", 1))
		}
	}
	if n := len(g.requests()); n != 1 {
		t.Fatalf("%d RPCs sent while the inflight budget was spent, want 1", n)
	}
	close(g.release)
	ctx := context.Background()
	for _, f := range append(futs, first) {
		if _, err := f.Get(ctx); err != nil {
			t.Fatal(err)
		}
	}
	reqs := g.requests()
	if len(reqs) != 2 {
		t.Fatalf("%d RPCs sent, want 2", len(reqs))
	}
	ops := 0
	for _, grp := range reqs[1].Groups {
		ops += len(grp.Ops)
	}
	if len(reqs[1].Groups) != sessions || ops != sessions*each {
		t.Fatalf("second RPC carried %d groups and %d ops, want %d and %d", len(reqs[1].Groups), ops, sessions, sessions*each)
	}
}
