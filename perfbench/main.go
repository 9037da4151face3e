// Command perfbench is the repository's benchmark. It runs one
// workload against the real serving stack (cluster, HTTP front end,
// SDK) or the checker, checks every output, and prints its metrics:
//
//	go run . --workload reads-cc --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the bounded end-to-end ones; with --trace 1 they are the per-layer
// ones, from a separate traced run whose spans are written under --out.
// The line before it reports the other end-to-end metrics. The exit
// code is non-zero when a correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metrics maps a metric name to its value.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// durations records the given quantiles of vals as <prefix>_pNN_us.
func (m metrics) durations(prefix string, vals []time.Duration, qs ...float64) {
	slices.Sort(vals)
	for _, q := range qs {
		m.set(fmt.Sprintf("%s_p%d_us", prefix, int(q*100)), us(pct(vals, q)))
	}
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees that BENCHMARK.json bounds:
// set-up time; core_us_per_op, the CPU time one unit of work takes (an
// op when serving, a history when classifying, both from getrusage);
// and heap_mb, the heap the open cluster
// retains (serving) or the peak heap in use while classifying
// (check-corpus).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"core_us_per_op", "us/op"},
	{"heap_mb", "MB"},
}

// reported are the other end-to-end metrics. Each run prints them by
// name and unit on the line before its result, but BENCHMARK.json does
// not bound them: on a 2-core virtual machine with noisy neighbours,
// their spread over ten runs of one commit can exceed the largest bound
// a benchmark may set (see README.md).
var reported = []metricDef{
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"error_rate", "ratio"},
	{"corpus_s", "s"},
	{"check_p50_us", "us"},
	{"check_p99_us", "us"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of single layers, from the traced run. A
// workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{"driver.late_p50_us", "us"},
	{"driver.late_p99_us", "us"},
	{"driver.wait_p50_us", "us"},
	{"client.sdk_p50_us", "us"},
	{"client.rtt_p50_us", "us"},
	{"client.rtt_p99_us", "us"},
	{"http.serve_query_p50_us", "us"},
	{"http.serve_query_p99_us", "us"},
	{"http.serve_update_p50_us", "us"},
	{"http.serve_update_p99_us", "us"},
	{"http.net_p50_us", "us"},
	{"http.req_bytes_per_op", "B/op"},
	{"http.resp_bytes_per_op", "B/op"},
	{"station.batch_fill", "ops/batch"},
	{"station.fanout", "ratio"},
	{"station.log_len", "count"},
	{"broadcast.lag_p50_us", "us"},
	{"broadcast.lag_max_us", "us"},
	{"monitor.verdicts", "count"},
	{"monitor.exhausted", "count"},
	{"monitor.capped_ops", "count"},
	{"process.cpu_us_per_op", "us/op"},
	{"process.alloc_bytes_per_op", "B/op"},
	{"process.gc_cycles", "count"},
	{"check.nodes", "count"},
	{"check.canon_hits", "count"},
	{"check.sleep_skips", "count"},
	{"check.sym_skips", "count"},
	{"check.prune_ratio", "ratio"},
	{"check.ns_per_node", "ns"},
	{"check.pool_busy", "ratio"},
	{"check.exhausted", "count"},
	{"check.ms.CC", "ms"},
	{"check.ms.CCv", "ms"},
	{"check.ms.PC", "ms"},
	{"check.ms.WCC", "ms"},
	{"check.ms.SC", "ms"},
	{"check.ms.EC", "ms"},
	{"check.ms.UC", "ms"},
	{"trace.overhead_pct", "%"},
}

// layers records, per workload, the layers it loads and those it
// bypasses, so a prediction of "no change" can be checked against it.
var layers = map[string][2][]string{
	"reads-cc": {
		{"driver", "cc/client", "cc/cluster http", "cc/cluster/wire", "cc/cluster routing", "internal/core queries", "cc/cluster monitor"},
		{"internal/core batching and fold", "internal/broadcast (5% writes)", "internal/check (a few windows)"},
	},
	"writes-ccv": {
		{"driver", "cc/client", "cc/cluster http", "cc/cluster/wire", "internal/core batching and CCv fold", "internal/broadcast causal", "cc/cluster monitor"},
		{"anti-entropy gossip", "internal/check (a few windows)"},
	},
	"carts-ae": {
		{"driver", "cc/client", "cc/cluster http", "cc/cluster/wire", "internal/core", "anti-entropy gossip", "cc/cluster monitor"},
		{"internal/broadcast", "internal/check (a few windows)"},
	},
	"check-corpus": {
		{"cc/histories parser", "cc/checker classifier", "internal/check engine and pruners", "worker pool"},
		{"driver", "cc/client", "cc/cluster", "internal/core", "internal/broadcast"},
	},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "reads-cc, writes-ccv, carts-ae or check-corpus")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the measurement")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the trace is written to")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace == 1, *out))
}

func run(workload string, seed int64, seconds int, trace bool, out string) int {
	ls, ok := layers[workload]
	if !ok || seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds %d\n", workload, seconds)
		return 2
	}
	header, _ := json.Marshal(map[string]any{"workload": workload, "seed": seed, "seconds": seconds,
		"trace": trace, "cores": runtime.NumCPU(), "loads": ls[0], "bypasses": ls[1]})
	fmt.Println(string(header))

	var tr *tracer
	if trace {
		tr = &tracer{}
	}
	var m metrics
	var tl *tally
	var err error
	if w, ok := servingWorkloads[workload]; ok {
		m, tl, err = runServing(w, seed, seconds, trace, tr)
	} else {
		m, tl, err = runCorpus(seed, seconds, trace, tr)
	}
	if m == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if tr != nil {
		path := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if werr := tr.write(path); werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", werr)
		}
	}
	others := map[string]value{}
	for _, d := range reported {
		if v, ok := m[d.name]; ok {
			others[d.name] = value{v, d.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{"reported": others})
	fmt.Println(string(line))
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: err == nil, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.name] = value{m[d.name], d.unit}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", err)
	}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}
