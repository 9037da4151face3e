package client

// The client-side batcher: asynchronous invocations queue per
// session and coalesce into wire.BatchRequests (one group per session,
// ops in submission order, at most maxOps per request) by group
// commit, the server's own broadcast batching policy (core.Station):
// an op is dispatched at once unless maxInflight batch RPCs are in
// flight, and ops arriving meanwhile go out when one resolves. A
// session whose ops are in flight contributes nothing to the next
// batch until they resolve, so one session's ops never race each
// other across requests while independent sessions pipeline freely.

import (
	"context"
	"sync"
	"time"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

// batchOp is one queued invocation. attempt counts self-healing
// re-submissions of this op (0 on first enqueue). readRep names the
// serving replica of a ReadReplica-target read; sc is non-nil for
// SLA-routed reads, whose route is re-planned at every dispatch and
// whose delivered consistency is judged at resolution.
type batchOp struct {
	obj     string
	in      cc.Input
	target  wire.ReadTarget
	readRep *int
	sc      *slaCall
	fut     *Future
	attempt int
}

// sameRoute reports whether two ops can share a batch group: one
// group carries one read target and one explicit read replica.
func sameRoute(a, b batchOp) bool {
	if a.target != b.target {
		return false
	}
	if (a.readRep == nil) != (b.readRep == nil) {
		return false
	}
	return a.readRep == nil || *a.readRep == *b.readRep
}

// sessQueue is one session's pending ops. notBefore delays the next
// dispatch of this session's ops (retry backoff after a failure).
type sessQueue struct {
	ops       []batchOp
	inflight  bool // some of this session's ops are in an unresolved batch
	notBefore time.Time
}

type batcher struct {
	tr          Transport
	cli         *Client // self-healing hooks; nil-safe (plain batching)
	maxOps      int
	maxInflight int

	mu       sync.Mutex
	cond     *sync.Cond // signalled when a batch resolves (close waits on it)
	queues   map[int]*sessQueue
	order    []int // sessions with queued ops, in arrival order
	queued   int   // total queued ops across sessions
	inflight int   // batch RPCs in flight
	closed   bool
}

func newBatcher(tr Transport, maxOps, maxInflight int) *batcher {
	b := &batcher{
		tr:          tr,
		maxOps:      maxOps,
		maxInflight: maxInflight,
		queues:      make(map[int]*sessQueue),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// enqueue appends one op to its session's queue and flushes.
func (b *batcher) enqueue(sess int, op batchOp) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		op.fut.reject(ErrClosed)
		return
	}
	q, ok := b.queues[sess]
	if !ok {
		q = &sessQueue{}
		b.queues[sess] = q
	}
	if len(q.ops) == 0 {
		b.order = append(b.order, sess)
	}
	q.ops = append(q.ops, op)
	b.queued++
	b.flushLocked()
	b.mu.Unlock()
}

// wakeUp dispatches ops whose session's retry backoff has run out.
func (b *batcher) wakeUp() {
	b.mu.Lock()
	b.flushLocked()
	b.mu.Unlock()
}

// flushLocked dispatches as many batches as the inflight budget
// allows; what it leaves queued goes out when an RPC resolves or a
// retry backoff runs out (wakeUp). Caller holds b.mu.
func (b *batcher) flushLocked() {
	for b.inflight < b.maxInflight {
		req, futs, sessions := b.buildLocked()
		if req == nil {
			break
		}
		b.inflight++
		go b.send(req, futs, sessions)
	}
}

// buildLocked assembles one batch from the sessions that are not in
// flight (and not in a retry-backoff window): per session, the
// longest prefix run with a uniform read target (a group carries one
// target), capped at maxOps total. Each group carries its session's
// failover routing (replica pin + causal frontier); a session whose
// replica's circuit breaker is open has its queued ops failed fast
// with the typed error instead of being dispatched. It returns nil
// when nothing is dispatchable.
func (b *batcher) buildLocked() (*wire.BatchRequest, [][]batchOp, []int) {
	var (
		req      wire.BatchRequest
		sent     [][]batchOp
		sessions []int
		budget   = b.maxOps
		now      = time.Now()
	)
	keep := b.order[:0]
	for _, sess := range b.order {
		q := b.queues[sess]
		if len(q.ops) == 0 {
			continue // fully drained earlier; drop from order
		}
		if q.inflight || budget == 0 || now.Before(q.notBefore) {
			keep = append(keep, sess)
			continue
		}
		var rep *int
		var fronts []wire.ShardFrontier
		if b.cli != nil {
			var fastErr error
			rep, fronts, fastErr = b.cli.route(sess)
			if fastErr != nil {
				for _, op := range q.ops {
					op.fut.reject(fastErr)
				}
				b.queued -= len(q.ops)
				q.ops = nil
				continue
			}
			// Re-plan queued SLA reads against current conditions: the
			// route chosen at enqueue time may predate a failure or a
			// staleness change.
			for i := range q.ops {
				if sc := q.ops[i].sc; sc != nil {
					q.ops[i].target, q.ops[i].readRep = b.cli.slaPlan(sess, sc)
				}
			}
		}
		head := q.ops[0]
		n := 0
		for n < len(q.ops) && n < budget && sameRoute(q.ops[n], head) {
			n++
		}
		group := wire.BatchGroup{Session: sess, Target: head.target, Replica: rep, Frontiers: fronts, ReadReplica: head.readRep}
		gf := make([]batchOp, n)
		for i, op := range q.ops[:n] {
			group.Ops = append(group.Ops, wire.BatchOp{Object: op.obj, Method: op.in.Method, Args: op.in.Args})
			gf[i] = op
		}
		q.ops = q.ops[n:]
		b.queued -= n
		budget -= n
		q.inflight = true
		req.Groups = append(req.Groups, group)
		sent = append(sent, gf)
		sessions = append(sessions, sess)
		if len(q.ops) > 0 {
			keep = append(keep, sess)
		}
	}
	b.order = keep
	if len(req.Groups) == 0 {
		return nil, nil, nil
	}
	return &req, sent, sessions
}

// send performs one batch RPC and resolves its futures. A retryable
// transport-level failure retries the whole RPC under the client's
// backoff budget (re-routing each group first, since a failover may
// have moved its session); a non-retryable one fails every op. After
// a served RPC, ops that failed retryably (their replica drained,
// crashed, or lagged the frontier) are re-queued at the front of
// their session's queue — order within the session preserved — with
// a backoff window, until their attempt budget runs out.
//
// Over HTTP a transport-level retry is at-least-once: the server may
// have applied the batch before the connection died, and the retry
// re-applies it. The loopback transport never has that window. The
// chaos harness asserts over loopback for exactly this reason; HTTP
// callers enabling WithRetry accept at-least-once updates under
// connection loss (idempotent ops, or dedup above the SDK).
func (b *batcher) send(req *wire.BatchRequest, sent [][]batchOp, sessions []int) {
	attempts := 1
	if b.cli != nil {
		attempts = b.cli.heal.attempts()
	}
	var resp *wire.BatchResponse
	var err error
	var rpcStart time.Time
	for a := 0; a < attempts; a++ {
		if a > 0 {
			b.cli.met.retries.Add(1)
			time.Sleep(b.cli.backoff(a - 1))
			for gi, sess := range sessions {
				rep, fronts, fastErr := b.cli.route(sess)
				if fastErr == nil {
					req.Groups[gi].Replica, req.Groups[gi].Frontiers = rep, fronts
				}
			}
		}
		if b.cli != nil {
			req.Epoch = b.cli.ringEpoch.Load()
		}
		rpcStart = time.Now()
		resp, err = b.tr.Batch(context.Background(), req)
		if err == nil || !retryable(err) {
			break
		}
		if isStaleRing(err) {
			// Topology change, not a replica failure: refresh the ring and
			// retry with the current epoch (the batch never ran).
			b.cli.refreshRing(context.Background())
			continue
		}
		for _, sess := range sessions {
			b.cli.noteFailure(sess, err)
		}
	}
	b.mu.Lock()
	b.inflight--
	now := time.Now()
	for gi, sess := range sessions {
		q := b.queues[sess]
		if q != nil {
			q.inflight = false
		}
		var requeue []batchOp
		var groupErr error // worst per-op failure, for the breaker/failover
		elapsed := time.Since(rpcStart)
		for i, op := range sent[gi] {
			switch {
			case err != nil:
				if op.sc != nil && b.cli != nil {
					b.cli.slaObserve(op.sc, nil, elapsed, err)
				}
				op.fut.reject(err)
			case gi >= len(resp.Groups) || len(resp.Groups[gi].Results) != len(sent[gi]):
				e := wire.Errf(wire.CodeInternal, "malformed batch response for session %d", sess)
				if op.sc != nil && b.cli != nil {
					b.cli.slaObserve(op.sc, nil, elapsed, e)
				}
				op.fut.reject(e)
			default:
				r := resp.Groups[gi].Results[i]
				if r.Err == nil {
					if op.sc != nil && b.cli != nil {
						// Judge before the group's frontiers merge below, or
						// the read's own echo would vacuously dominate.
						b.cli.slaJudgeRMW(sess, op.sc, r.Output)
						b.cli.slaObserve(op.sc, r.Output, elapsed, nil)
					} else if b.cli != nil {
						b.cli.slaNoteHighWater(r.Output)
					}
					op.fut.resolve(outputFromWire(r.Output))
					continue
				}
				if breakerWorthy(r.Err) || groupErr == nil && retryable(r.Err) {
					groupErr = r.Err
				}
				if b.cli != nil && retryable(r.Err) && op.attempt+1 < attempts {
					op.attempt++
					requeue = append(requeue, op)
					continue
				}
				if op.sc != nil && b.cli != nil {
					b.cli.slaObserve(op.sc, nil, elapsed, r.Err)
				}
				op.fut.reject(r.Err)
			}
		}
		if b.cli != nil && err == nil && resp != nil && gi < len(resp.Groups) {
			b.cli.mergeFronts(sess, resp.Groups[gi].Frontiers)
			if groupErr != nil {
				b.cli.noteFailure(sess, groupErr)
			} else {
				b.cli.noteSuccess(sess, nil)
			}
		}
		switch {
		case len(requeue) > 0:
			if q == nil {
				q = &sessQueue{}
				b.queues[sess] = q
			}
			if len(q.ops) == 0 {
				b.order = append(b.order, sess)
			}
			q.ops = append(requeue, q.ops...)
			b.queued += len(requeue)
			backoff := b.cli.backoff(requeue[0].attempt - 1)
			q.notBefore = now.Add(backoff)
			time.AfterFunc(backoff, b.wakeUp)
		case q != nil && len(q.ops) == 0:
			// Idle session: drop its entry, or the map grows by one dead
			// sessQueue per session id ever used (enqueue recreates it on
			// demand).
			delete(b.queues, sess)
		}
	}
	b.flushLocked()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// close flushes and waits until every queued and in-flight op has
// resolved. New enqueues are rejected with ErrClosed.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.flushLocked()
	for b.inflight > 0 || b.queued > 0 {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
