// Command ccload is the load generator for ccserved, built entirely
// on the public cc surface — the cc/client SDK, the cc/cluster/wire
// protocol, and the cc/bench workload subsystem (it hand-rolls no
// request structs, no op generators and no percentile math).
//
// Usage:
//
//	ccload -addr http://127.0.0.1:8344 -clients 8 -duration 5s \
//	       -objects 16 -adt mixed -write-ratio 0.3 -skew 1.1 \
//	       [-batch] [-pipeline 32] [-batch-ops 64] \
//	       [-read-target affinity|any] [-read-target-mix "affinity=0.8,any=0.2"] \
//	       [-scenario read-heavy [-rate 500] [-arrival poisson|fixed] [-ramp ...]] \
//	       [-sla] [-sla-spec "rmw@5ms=1,..."] [-sla-slow 20ms] [-sla-partition 0] \
//	       [-bench-out BENCH_runtime.json -label "..."] [-require-verdicts]
//
// Three modes:
//
//   - The default is the classic closed loop over an ad-hoc population:
//     N client goroutines (one session each) drive -objects objects of
//     -adt with a -write-ratio mix and optional Zipf-skewed popularity.
//     -batch turns on client-side batching (the SDK group-commits
//     async invocations into POST /v1/batch); -read-target any issues
//     Pileus-style weak reads; -read-target-mix draws the target per
//     operation.
//
//   - -scenario runs a named cc/bench workload (-list-scenarios
//     enumerates them) instead; the scenario declares its own ADT mix,
//     key distribution and op percentages, so -adt/-write-ratio/-skew
//     are ignored. With -rate R the run is OPEN loop: arrivals come
//     from a target-rate clock (-arrival poisson|fixed) and latency is
//     measured from each op's intended start, so queueing delay during
//     server stalls is charged instead of silently omitted
//     (coordinated omission). -ramp steps the offered rate from
//     -ramp-start by -ramp-factor until achieved/offered falls below
//     -knee-floor or the intended p99 blows -knee-p99, and reports the
//     last sustained step as the knee (-require-knee makes "no
//     sustained step" a failure).
//
//   - -sla switches to the consistency-SLA scenario (see sla.go):
//     skew the topology with per-replica serving delays, then compare
//     the adaptive utility-maximizing read router against static
//     affinity and static any baselines.
//
// -bench-out appends a labelled entry (internal benchrec format, via
// cc/bench.AppendRecord) so a run becomes a recorded, comparable
// measurement. -require-verdicts exits non-zero unless the server's
// monitor produced at least one verdict during the run — the CI smoke
// contract.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ccbm/cc"
	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/cc/sla"
)

// mixedADTs is the default object population for -adt mixed.
var mixedADTs = []string{"Counter", "Register", "GSet", "RWSet", "Queue2", "Stack"}

type target struct {
	name string
	t    cc.ADT
	gen  bench.OpGen
}

// buildTargets resolves the ad-hoc object population (names, ADTs,
// operation generators) without touching the server. The generators
// are the engine's own, re-exported through cc/bench.
func buildTargets(objects int, adtFlag string, writeRatio float64) ([]target, error) {
	targets := make([]target, objects)
	for i := range targets {
		adtName := adtFlag
		if adtName == "mixed" {
			adtName = mixedADTs[i%len(mixedADTs)]
		}
		t, err := cc.LookupADT(adtName)
		if err != nil {
			return nil, err
		}
		gen, err := bench.GeneratorFor(adtName, writeRatio)
		if err != nil {
			return nil, err
		}
		targets[i] = target{name: fmt.Sprintf("obj-%03d", i), t: t, gen: gen}
	}
	return targets, nil
}

// parseTargetMix parses "-read-target-mix affinity=0.8,any=0.2" and
// returns the probability of drawing the any target per operation.
// Both weights must be named and sum to 1.
func parseTargetMix(text string) (float64, error) {
	weights := map[string]float64{}
	for _, part := range strings.Split(text, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return 0, fmt.Errorf(`-read-target-mix: %q: want "<target>=<weight>"`, part)
		}
		if k != string(wire.ReadAffinity) && k != string(wire.ReadAny) {
			return 0, fmt.Errorf("-read-target-mix: unknown target %q (want affinity or any)", k)
		}
		if _, dup := weights[k]; dup {
			return 0, fmt.Errorf("-read-target-mix: duplicate target %q", k)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return 0, fmt.Errorf("-read-target-mix: bad weight %q", v)
		}
		weights[k] = w
	}
	if len(weights) != 2 {
		return 0, fmt.Errorf("-read-target-mix: name both affinity and any")
	}
	if sum := weights[string(wire.ReadAffinity)] + weights[string(wire.ReadAny)]; math.Abs(sum-1) > 1e-6 {
		return 0, fmt.Errorf("-read-target-mix: weights sum to %v, want 1", sum)
	}
	return weights[string(wire.ReadAny)], nil
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8344", "ccserved base URL")
	clients := flag.Int("clients", 8, "concurrent clients/workers (one session each)")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	objects := flag.Int("objects", 16, "number of objects to create and drive")
	adtFlag := flag.String("adt", "mixed", `ADT for every object, or "mixed" to cycle a standard set`)
	writeRatio := flag.Float64("write-ratio", 0.3, "update fraction of the generated mix")
	skew := flag.Float64("skew", 1.1, "Zipf exponent for object popularity (0 = uniform)")
	seed := flag.Int64("seed", 1, "random seed")
	batch := flag.Bool("batch", false, "client-side batching over POST /v1/batch")
	pipeline := flag.Int("pipeline", 32, "async invocations in flight per client (with -batch)")
	batchOps := flag.Int("batch-ops", 64, "max ops per client batch (with -batch)")
	readTarget := flag.String("read-target", "affinity", "per-request read target: affinity or any")
	readTargetMix := flag.String("read-target-mix", "", `per-op probabilistic read target, e.g. "affinity=0.8,any=0.2"`)
	scenario := flag.String("scenario", "", "named cc/bench workload scenario (see -list-scenarios)")
	listScenarios := flag.Bool("list-scenarios", false, "list the registered workload scenarios and exit")
	rate := flag.Float64("rate", 0, "open-loop offered rate, total ops/s (0 = closed loop; needs -scenario)")
	arrival := flag.String("arrival", "poisson", "open-loop arrival process: poisson or fixed")
	rampFlag := flag.Bool("ramp", false, "step the offered rate until the service breaks; report the knee (needs -scenario)")
	rampStart := flag.Float64("ramp-start", 100, "first ramp step's offered rate (ops/s)")
	rampFactor := flag.Float64("ramp-factor", 1.5, "multiplicative offered-rate step")
	rampSteps := flag.Int("ramp-steps", 8, "maximum ramp steps")
	rampStepDur := flag.Duration("ramp-step-dur", time.Second, "measurement window per ramp step")
	kneeFloor := flag.Float64("knee-floor", 0.9, "a step is sustained when achieved/offered >= this")
	kneeP99 := flag.Duration("knee-p99", 0, "a step is also unsustained when intended p99 exceeds this (0 = off)")
	requireKnee := flag.Bool("require-knee", false, "exit non-zero when no ramp step was sustained")
	slaMode := flag.Bool("sla", false, "run the consistency-SLA scenario (adaptive vs static read routing)")
	slaSpec := flag.String("sla-spec", "rmw@5ms=1,bounded:100ms@2ms=0.5,eventual=0.1", "consistency SLA for -sla (see cc/sla grammar)")
	slaSlow := flag.Duration("sla-slow", 20*time.Millisecond, "serving delay injected on every replica except 0 (with -sla)")
	slaPartition := flag.Duration("sla-partition", 0, "cut the fast replica off for this window mid-phase to force downgrades (with -sla)")
	benchOut := flag.String("bench-out", "", "append a labelled result entry to this JSON file")
	label := flag.String("label", "", "label for the bench entry")
	requireVerdicts := flag.Bool("require-verdicts", false, "exit non-zero unless the monitor produced verdicts")
	flag.Parse()
	if *listScenarios {
		for _, s := range bench.Scenarios() {
			fmt.Printf("%-13s %s\n", s.Name, s.Doc)
			mix := make([]string, 0, len(s.Profile.Mix))
			for _, m := range s.Profile.Mix {
				mix = append(mix, fmt.Sprintf("%s=%.2f", m.Kind, m.Fraction))
			}
			fmt.Printf("%13s adts=%v dist=%s writes=%.2f mix %s\n",
				"", s.Profile.ADTs, s.Profile.Dist, s.Profile.WriteFraction(), strings.Join(mix, " "))
		}
		return
	}
	if *clients < 1 || *objects < 1 {
		fmt.Fprintln(os.Stderr, "ccload: -clients and -objects must be at least 1")
		os.Exit(2)
	}
	if *skew != 0 && *skew <= 1 {
		// rand.NewZipf needs s > 1; silently degrading to uniform would
		// record a bench entry whose skew field lies about the run.
		fmt.Fprintln(os.Stderr, "ccload: -skew must be 0 (uniform) or > 1 (Zipf exponent)")
		os.Exit(2)
	}
	tgt := wire.ReadTarget(*readTarget)
	if !tgt.Valid() {
		fmt.Fprintln(os.Stderr, "ccload: -read-target must be affinity or any")
		os.Exit(2)
	}
	pipelineSet, targetSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "pipeline":
			pipelineSet = true
		case "read-target":
			targetSet = true
		}
	})
	mixAny := 0.0
	if *readTargetMix != "" {
		if targetSet {
			fmt.Fprintln(os.Stderr, "ccload: -read-target and -read-target-mix are mutually exclusive")
			os.Exit(2)
		}
		if *slaMode {
			fmt.Fprintln(os.Stderr, "ccload: -sla plans its own read targets; drop -read-target-mix")
			os.Exit(2)
		}
		var err error
		if mixAny, err = parseTargetMix(*readTargetMix); err != nil {
			fmt.Fprintln(os.Stderr, "ccload:", err)
			os.Exit(2)
		}
	}
	if pipelineSet && !*batch {
		fmt.Fprintln(os.Stderr, "ccload: -pipeline needs -batch (per-op mode is a closed loop)")
		os.Exit(2)
	}
	if *batch && (*pipeline < 1 || *batchOps < 1) {
		fmt.Fprintln(os.Stderr, "ccload: -pipeline and -batch-ops must be at least 1")
		os.Exit(2)
	}
	if *scenario == "" && (*rate != 0 || *rampFlag) {
		fmt.Fprintln(os.Stderr, "ccload: -rate and -ramp need -scenario (the ad-hoc mode is a closed loop)")
		os.Exit(2)
	}
	if *scenario != "" {
		if *slaMode {
			fmt.Fprintln(os.Stderr, "ccload: -scenario and -sla are mutually exclusive")
			os.Exit(2)
		}
		arr := bench.Arrival(*arrival)
		if arr != bench.ArrivalPoisson && arr != bench.ArrivalFixed {
			fmt.Fprintln(os.Stderr, "ccload: -arrival must be poisson or fixed")
			os.Exit(2)
		}
		os.Exit(runScenario(scenarioCfg{
			addr: *addr, scenario: *scenario, workers: *clients, objects: *objects,
			duration: *duration, seed: *seed, rate: *rate, arrival: arr,
			batch: *batch, batchOps: *batchOps,
			ramp: *rampFlag, rampStart: *rampStart, rampFactor: *rampFactor,
			rampSteps: *rampSteps, rampStepDur: *rampStepDur,
			kneeFloor: *kneeFloor, kneeP99: *kneeP99, requireKnee: *requireKnee,
			requireVerdicts: *requireVerdicts, benchOut: *benchOut, label: *label,
		}))
	}
	targets, err := buildTargets(*objects, *adtFlag, *writeRatio)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccload:", err)
		os.Exit(2)
	}

	if *slaMode {
		spec, err := sla.Parse(*slaSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccload: -sla-spec:", err)
			os.Exit(2)
		}
		if *slaSlow <= 0 {
			fmt.Fprintln(os.Stderr, "ccload: -sla-slow must be positive (the scenario needs a skewed topology)")
			os.Exit(2)
		}
		os.Exit(runSLA(slaCfg{
			addr: *addr, clients: *clients, duration: *duration, targets: targets,
			seed: *seed, batch: *batch, pipeline: *pipeline, batchOps: *batchOps,
			spec: spec, specText: *slaSpec, slow: *slaSlow,
			partition: *slaPartition, benchOut: *benchOut, label: *label,
			require: *requireVerdicts, skew: *skew,
		}))
	}

	var opts []client.Option
	if *batch {
		opts = append(opts, client.WithBatching(*batchOps))
	}
	opts = append(opts, client.WithReadTarget(tgt))
	cli, err := client.New(client.NewHTTPTransport(*addr), opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccload:", err)
		os.Exit(2)
	}
	defer cli.Close()

	// Wait for the server (and the protocol handshake), then create
	// the object population.
	if err := waitHealthy(cli, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "ccload:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	// Learn the placement ring (and cache its epoch, so a server-side
	// rebalance mid-run surfaces as a retryable stale_ring redirect
	// rather than a silent misroute).
	if ringInfo, err := cli.Ring(ctx); err == nil {
		fmt.Printf("ccload: ring epoch=%d vnodes=%d load=%.2f shards=%d\n",
			ringInfo.Epoch, ringInfo.VNodes, ringInfo.LoadFactor, len(ringInfo.Shards))
	}
	for _, tg := range targets {
		if err := cli.CreateObject(ctx, tg.name, tg.t.Name()); err != nil {
			fmt.Fprintln(os.Stderr, "ccload: create:", err)
			os.Exit(1)
		}
	}

	// Each client owns one session. Per-op mode is a closed loop; with
	// -batch each client keeps up to -pipeline futures in flight and a
	// collector goroutine retires them in submission order. Latency
	// goes to a shared lock-free histogram (every op, not a sample).
	var (
		ops, writes, reads, errs atomic.Int64
		anyOps                   atomic.Int64 // ops issued with the any target (-read-target-mix)
	)
	hist := bench.NewHistogram()
	dist := bench.KeyUniform
	if *skew > 1 {
		dist = bench.KeyZipf
	}
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for cl := 0; cl < *clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			sess := cli.Session(cl)
			sessAny := sess.WithTarget(wire.ReadAny)
			rng := rand.New(rand.NewSource(*seed*7919 + int64(cl)))
			pick := bench.NewChooser(dist, *skew, rng)

			type inflight struct {
				fut    *client.Future
				t0     time.Time
				update bool
			}
			var window chan inflight
			var cwg sync.WaitGroup
			if *batch {
				window = make(chan inflight, *pipeline)
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					for fl := range window {
						if _, err := fl.fut.Get(ctx); err != nil {
							errs.Add(1)
							continue
						}
						ops.Add(1)
						if fl.update {
							writes.Add(1)
						} else {
							reads.Add(1)
						}
						hist.RecordDuration(time.Since(fl.t0))
					}
				}()
			}

			for step := 0; time.Now().Before(deadline); step++ {
				tg := targets[pick(len(targets))]
				in := tg.gen(rng, step)
				update := tg.t.IsUpdate(in)
				s := sess
				if mixAny > 0 && rng.Float64() < mixAny {
					s = sessAny
					anyOps.Add(1)
				}
				t0 := time.Now()
				if *batch {
					fut := s.InvokeAsync(tg.name, in)
					window <- inflight{fut: fut, t0: t0, update: update}
					continue
				}
				if _, err := s.Invoke(ctx, tg.name, in); err != nil {
					errs.Add(1)
					continue
				}
				ops.Add(1)
				if update {
					writes.Add(1)
				} else {
					reads.Add(1)
				}
				hist.RecordDuration(time.Since(t0))
			}
			if *batch {
				close(window)
				cwg.Wait()
			}
		}(cl)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	total := ops.Load()
	opsPerSec := float64(total) / elapsed.Seconds()
	lat := hist.Percentiles()
	realized := 0.0
	if total > 0 {
		realized = float64(writes.Load()) / float64(total)
	}

	sum, err := cli.MonitorSummary(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccload: monitor:", err)
		sum = &wire.MonitorSummary{}
	}

	mode := "perop"
	if *batch {
		mode = fmt.Sprintf("batch(ops=%d,pipeline=%d)", *batchOps, *pipeline)
	}
	fmt.Printf("ccload: %d ops in %v (%.0f ops/s), %d errors, mode %s\n",
		total, elapsed.Round(time.Millisecond), opsPerSec, errs.Load(), mode)
	targetDesc := string(tgt)
	if *readTargetMix != "" {
		realizedAny := 0.0
		if issued := total + errs.Load(); issued > 0 {
			realizedAny = float64(anyOps.Load()) / float64(issued)
		}
		targetDesc = fmt.Sprintf("mix(%s, realized any=%.3f)", *readTargetMix, realizedAny)
	}
	fmt.Printf("mix     w=%d r=%d (realized write ratio %.3f of requested %.2f), read-target %s\n",
		writes.Load(), reads.Load(), realized, *writeRatio, targetDesc)
	fmt.Printf("latency n=%d mean=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f µs\n",
		lat.Count, lat.MeanUS, lat.P50US, lat.P95US, lat.P99US, lat.MaxUS)
	monJSON, _ := json.Marshal(sum)
	fmt.Printf("monitor %s\n", monJSON)

	if *benchOut != "" {
		lbl := *label
		if lbl == "" {
			lbl = "ccload run"
		}
		n, err := bench.AppendRecord(*benchOut, lbl, map[string]any{
			"config": map[string]any{
				"clients": *clients, "objects": *objects, "adt": *adtFlag,
				"write_ratio": *writeRatio, "skew": *skew, "duration": duration.String(),
				"mode": mode, "read_target": targetDesc,
			},
			"ops":                  total,
			"ops_per_sec":          round1(opsPerSec),
			"errors":               errs.Load(),
			"realized_write_ratio": round3(realized),
			"latency_us": map[string]any{
				"p50": lat.P50US, "p95": lat.P95US, "p99": lat.P99US, "mean": round1(lat.MeanUS),
			},
			"monitor": sum,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccload: bench-out:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %s (%d entries)\n", *benchOut, n)
	}
	if *requireVerdicts && sum.Verdicts == 0 {
		fmt.Fprintln(os.Stderr, "ccload: monitor produced no verdicts")
		os.Exit(1)
	}
	if len(sum.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "ccload: monitor reported %d violations\n", len(sum.Violations))
		os.Exit(1)
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "ccload: no operation completed")
		os.Exit(1)
	}
}

func round1(f float64) float64 { return float64(int64(f*10)) / 10 }
func round3(f float64) float64 { return float64(int64(f*1000)) / 1000 }

func waitHealthy(cli *client.Client, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := cli.Health(ctx)
		cancel()
		if err == nil && h.OK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy within %v: %v", within, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
