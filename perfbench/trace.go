package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Correlation headers: the SDK calls its transport with
// context.Background(), so the client-side span tags the request with
// its session and op, and the server-side span reads them back. Each
// caller has at most one op in flight, which makes the pair unique.
const (
	hdrSession = "X-Perfbench-Session"
	hdrOp      = "X-Perfbench-Op"
)

// span is one timed interval at a layer boundary. Spans of one op share
// (session, op) and nest: op ⊃ client.invoke ⊃ http.roundtrip ⊃ http.serve.
type span struct {
	name       string
	session    int
	op         int
	start, end time.Time
	reqBytes   int64
	respBytes  int64
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	cur   [callers]atomic.Int64 // op index each caller has in flight
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// roundTripper records the client side of every HTTP exchange.
type roundTripper struct {
	base    http.RoundTripper
	t       *tracer
	session int
}

func (rt *roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	op := int(rt.t.cur[rt.session].Load())
	r = r.Clone(r.Context())
	r.Header.Set(hdrSession, strconv.Itoa(rt.session))
	r.Header.Set(hdrOp, strconv.Itoa(op))
	start := time.Now()
	resp, err := rt.base.RoundTrip(r)
	s := span{name: "http.roundtrip", session: rt.session, op: op, start: start, end: time.Now(), reqBytes: r.ContentLength}
	if err == nil {
		s.respBytes = resp.ContentLength
	}
	rt.t.add(s)
	return resp, err
}

// wrap records the server side: the whole cluster.NewHTTPHandler call.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		sess, err1 := strconv.Atoi(r.Header.Get(hdrSession))
		op, err2 := strconv.Atoi(r.Header.Get(hdrOp))
		if err1 == nil && err2 == nil {
			t.add(span{name: "http.serve", session: sess, op: op, start: start, end: end})
		}
	})
}

// addOps records the op and client.invoke spans of a driven phase.
func (t *tracer) addOps(t0 time.Time, per [][]sample) {
	for c, ss := range per {
		for k, s := range ss {
			if s.failed {
				continue
			}
			t.add(span{name: "op", session: c, op: k, start: t0.Add(s.intended), end: t0.Add(s.done)})
			t.add(span{name: "client.invoke", session: c, op: k, start: t0.Add(s.sent), end: t0.Add(s.done)})
		}
	}
}

// byOp indexes the spans of one name by (session, op).
func (t *tracer) byOp(name string) map[[2]int]span {
	out := map[[2]int]span{}
	for _, s := range t.spans {
		if s.name == name {
			out[[2]int{s.session, s.op}] = s
		}
	}
	return out
}

// write dumps the spans as JSON lines, times in µs from the first span.
func (t *tracer) write(path string) error {
	if len(t.spans) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	epoch := t.spans[0].start
	for _, s := range t.spans {
		if s.start.Before(epoch) {
			epoch = s.start
		}
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(map[string]any{
			"name": s.name, "session": s.session, "op": s.op,
			"start_us": us(s.start.Sub(epoch)), "end_us": us(s.end.Sub(epoch)),
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics derives the client and HTTP layer metrics of a traced
// phase from its nested spans: each layer's self time is its span minus
// the child span it contains.
func spanMetrics(t *tracer, per [][]sample, m metrics) error {
	rtts, serves := t.byOp("http.roundtrip"), t.byOp("http.serve")
	var sdk, rtt, net, serveQ, serveU []time.Duration
	var reqB, respB int64
	for c, ss := range per {
		for k, s := range ss {
			if s.failed {
				continue
			}
			rt, ok1 := rtts[[2]int{c, k}]
			sv, ok2 := serves[[2]int{c, k}]
			if !ok1 || !ok2 {
				return fmt.Errorf("trace: op %d of session %d has no round-trip or serve span", k, c)
			}
			rd, sd := rt.end.Sub(rt.start), sv.end.Sub(sv.start)
			sdk = append(sdk, s.service()-rd)
			rtt = append(rtt, rd)
			net = append(net, rd-sd)
			if s.update {
				serveU = append(serveU, sd)
			} else {
				serveQ = append(serveQ, sd)
			}
			reqB += rt.reqBytes
			respB += rt.respBytes
		}
	}
	n := float64(len(rtt))
	m.durations("client.sdk", sdk, 0.5)
	m.durations("client.rtt", rtt, 0.5, 0.99)
	m.durations("http.net", net, 0.5)
	m.durations("http.serve_query", serveQ, 0.5, 0.99)
	m.durations("http.serve_update", serveU, 0.5, 0.99)
	m.set("http.req_bytes_per_op", float64(reqB)/n)
	m.set("http.resp_bytes_per_op", float64(respB)/n)
	return nil
}
