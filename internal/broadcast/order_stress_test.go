package broadcast_test

import (
	"sync"
	"testing"

	"github.com/paper-repro/ccbm/internal/broadcast"
	"github.com/paper-repro/ccbm/internal/net"
)

// stressMsg is one broadcast of the delivery-order stress test. deps
// is the per-origin count of messages its origin's application had
// seen delivered when it broadcast: its causal past.
type stressMsg struct {
	origin int
	deps   []int
}

// orderLog records each process's deliveries in delivery order.
type orderLog struct {
	mu     sync.Mutex
	order  [][]*stressMsg // per process
	counts [][]int        // per process, per origin
}

func newOrderLog(n int) *orderLog {
	l := &orderLog{order: make([][]*stressMsg, n), counts: make([][]int, n)}
	for p := range l.counts {
		l.counts[p] = make([]int, n)
	}
	return l
}

func (l *orderLog) deliver(p int) broadcast.Deliver {
	return func(origin int, payload any) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.order[p] = append(l.order[p], payload.(*stressMsg))
		l.counts[p][origin]++
	}
}

func (l *orderLog) seen(p int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.counts[p]...)
}

// TestDeliveryOrderUnderConcurrency races overlapping local
// Broadcasts at each process against the remote deliveries its
// mailbox goroutine drains on the live transport, and checks, at every
// receiver, per-origin FIFO order (every process delivers each
// origin's messages in the same sequence) and, for the causal layer,
// causal order (a message is delivered only after its causal past).
// Run it under -race with a high -count: a layer that hands a
// ready-list to its delivery queue after releasing its state lock
// lets a concurrent drainer deliver a later ready-list first.
func TestDeliveryOrderUnderConcurrency(t *testing.T) {
	const procs, senders, each = 3, 2, 60
	layers := []struct {
		name   string
		causal bool
		mk     func(net.Transport, int, broadcast.Deliver) broadcast.Broadcaster
	}{
		{"FIFO", false, func(t net.Transport, id int, d broadcast.Deliver) broadcast.Broadcaster {
			return broadcast.NewFIFO(t, id, d)
		}},
		{"Causal", true, func(t net.Transport, id int, d broadcast.Deliver) broadcast.Broadcaster {
			return broadcast.NewCausal(t, id, d)
		}},
	}
	for _, layer := range layers {
		t.Run(layer.name, func(t *testing.T) {
			lv := net.NewLive(procs)
			defer lv.Close()
			log := newOrderLog(procs)
			bs := make([]broadcast.Broadcaster, procs)
			for p := range bs {
				bs[p] = layer.mk(lv, p, log.deliver(p))
			}
			var wg sync.WaitGroup
			for p := 0; p < procs; p++ {
				for g := 0; g < senders; g++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						for k := 0; k < each; k++ {
							bs[p].Broadcast(&stressMsg{origin: p, deps: log.seen(p)})
						}
					}(p)
				}
			}
			wg.Wait()
			lv.Quiesce()

			log.mu.Lock()
			defer log.mu.Unlock()
			const total = procs * senders * each
			for p := 0; p < procs; p++ {
				if len(log.order[p]) != total {
					t.Fatalf("process %d delivered %d messages, want %d", p, len(log.order[p]), total)
				}
			}
			// FIFO: each origin's subsequence is the same everywhere.
			perOrigin := func(p, o int) []*stressMsg {
				var seq []*stressMsg
				for _, m := range log.order[p] {
					if m.origin == o {
						seq = append(seq, m)
					}
				}
				return seq
			}
			for o := 0; o < procs; o++ {
				ref := perOrigin(o, o)
				for p := 0; p < procs; p++ {
					for i, m := range perOrigin(p, o) {
						if m != ref[i] {
							t.Fatalf("process %d: origin %d's message %d delivered out of FIFO order", p, o, i)
						}
					}
				}
			}
			if !layer.causal {
				return
			}
			// Causal: a message's causal past is delivered before it.
			for p := 0; p < procs; p++ {
				have := make([]int, procs)
				for i, m := range log.order[p] {
					for o, need := range m.deps {
						if have[o] < need {
							t.Fatalf("process %d: delivery %d (origin %d) precedes %d of its %d causal predecessors from origin %d",
								p, i, m.origin, need-have[o], need, o)
						}
					}
					have[m.origin]++
				}
			}
		})
	}
}
