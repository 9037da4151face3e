package main

// The -sla scenario: a self-contained consistency-SLA benchmark on a
// skewed topology. ccload injects a serving delay on every replica
// except replica 0 (so each session's affinity replica is slow while
// replica 0 is fast), then runs the same read-heavy workload three
// times against fresh clients — the adaptive utility-maximizing
// router, static affinity, and static any — and compares delivered
// mean utility. The acceptance contract (enforced with
// -require-verdicts): the adaptive router sends >= 90% of SLA reads
// to the fast replica while it is fresh, and beats BOTH static
// baselines on mean utility. An optional -sla-partition window cuts
// the fast replica off mid-phase to force recorded downgrade
// verdicts.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/cc/sla"
)

// slaCfg carries the scenario's knobs from main's flags.
type slaCfg struct {
	addr      string
	clients   int
	duration  time.Duration
	targets   []target
	seed      int64
	batch     bool
	pipeline  int
	batchOps  int
	spec      sla.SLA
	specText  string
	slow      time.Duration // delay injected on replicas 1..n-1
	partition time.Duration // fast-replica partition window (0 = off)
	benchOut  string
	label     string
	require   bool // fail the run when the acceptance contract breaks
	skew      float64
}

// slaPhase is one router variant measured over the full workload.
type slaPhase struct {
	name   string
	router sla.Router // nil = the adaptive default (sla.MaxUtility)
}

// slaResult is what one phase produced.
type slaResult struct {
	name      string
	ops, errs int64
	opsPerSec float64
	m         client.SLAMetrics
	fastShare float64 // SLA reads served by replica 0
}

// runSLA drives the whole scenario and returns the process exit code.
func runSLA(cfg slaCfg) int {
	ctx := context.Background()

	// Admin client: health, topology discovery, fault injection.
	admin, err := client.New(client.NewHTTPTransport(cfg.addr))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccload:", err)
		return 2
	}
	defer admin.Close()
	if err := waitHealthy(admin, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "ccload:", err)
		return 1
	}
	st, err := admin.Staleness(ctx)
	if err != nil || len(st.Shards) == 0 {
		fmt.Fprintln(os.Stderr, "ccload: staleness probe:", err)
		return 1
	}
	replicas := len(st.Shards[0].Replicas)
	if replicas < 2 {
		fmt.Fprintln(os.Stderr, "ccload: -sla needs at least 2 replicas")
		return 2
	}
	for _, tg := range cfg.targets {
		if err := admin.CreateObject(ctx, tg.name, tg.t.Name()); err != nil {
			fmt.Fprintln(os.Stderr, "ccload: create:", err)
			return 1
		}
	}
	// Skew the topology: every replica but 0 serves slow.
	for r := 1; r < replicas; r++ {
		if err := admin.Fault(ctx, &wire.FaultRequest{
			Action: wire.FaultReplicaDelay, Replica: r, DelayUS: cfg.slow.Microseconds(),
		}); err != nil {
			fmt.Fprintln(os.Stderr, "ccload: replica delay:", err)
			return 1
		}
	}
	fmt.Printf("ccload: sla scenario, %d replicas (replica 0 fast, %v delay on the rest), spec %q\n",
		replicas, cfg.slow, cfg.specText)

	phases := []slaPhase{
		{name: "adaptive", router: nil},
		{name: "static_affinity", router: sla.StaticAffinity{}},
		{name: "static_any", router: sla.StaticAny{}},
	}
	results := make([]slaResult, 0, len(phases))
	for _, ph := range phases {
		res, err := runSLAPhase(ctx, cfg, ph, replicas)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccload:", err)
			return 1
		}
		results = append(results, res)
		fmt.Printf("sla %-15s %6d ops (%.0f ops/s) %d errors\n", res.name, res.ops, res.opsPerSec, res.errs)
		fmt.Printf("    reads=%d by-replica=%v by-sub=%v misses=%d lat-misses=%d mean-utility=%.3f fast-share=%.3f\n",
			res.m.Reads, res.m.ByReplica, res.m.BySubSLA, res.m.Misses, res.m.LatencyMisses,
			res.m.MeanUtility, res.fastShare)
		for _, c := range res.m.Conditions {
			fmt.Printf("    replica %d: latency=%v staleness=%v failed=%v\n",
				c.Replica, c.Latency.Round(time.Microsecond), c.Staleness.Round(time.Microsecond), c.Failed)
		}
	}

	adaptive, statAff, statAny := results[0], results[1], results[2]
	var failures []string
	// The >=90% routing claim only holds while the fast replica stays
	// fresh; a partition window deliberately breaks that.
	if cfg.partition == 0 && adaptive.fastShare < 0.9 {
		failures = append(failures, fmt.Sprintf(
			"adaptive fast-replica share %.3f < 0.90", adaptive.fastShare))
	}
	if adaptive.m.MeanUtility <= statAff.m.MeanUtility {
		failures = append(failures, fmt.Sprintf(
			"adaptive mean utility %.3f <= static_affinity %.3f",
			adaptive.m.MeanUtility, statAff.m.MeanUtility))
	}
	if adaptive.m.MeanUtility <= statAny.m.MeanUtility {
		failures = append(failures, fmt.Sprintf(
			"adaptive mean utility %.3f <= static_any %.3f",
			adaptive.m.MeanUtility, statAny.m.MeanUtility))
	}
	if cfg.partition > 0 && adaptive.m.Misses == 0 {
		failures = append(failures, "partition window produced no downgrade verdicts")
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "ccload: sla:", f)
	}
	if len(failures) == 0 {
		fmt.Println("ccload: sla contract holds (adaptive beats both static baselines)")
	}

	if cfg.benchOut != "" {
		lbl := cfg.label
		if lbl == "" {
			lbl = "ccload sla scenario"
		}
		phaseOut := make([]map[string]any, 0, len(results))
		for _, r := range results {
			phaseOut = append(phaseOut, map[string]any{
				"phase": r.name, "ops": r.ops, "ops_per_sec": round1(r.opsPerSec), "errors": r.errs,
				"sla_reads": r.m.Reads, "by_replica": r.m.ByReplica, "by_sub_sla": r.m.BySubSLA,
				"misses": r.m.Misses, "latency_misses": r.m.LatencyMisses,
				"mean_utility": round3(r.m.MeanUtility), "fast_share": round3(r.fastShare),
			})
		}
		n, err := bench.AppendRecord(cfg.benchOut, lbl, map[string]any{
			"config": map[string]any{
				"scenario": "sla", "clients": cfg.clients, "objects": len(cfg.targets),
				"duration_per_phase": cfg.duration.String(), "replicas": replicas,
				"slow_delay": cfg.slow.String(), "partition_window": cfg.partition.String(),
				"sla": cfg.specText, "skew": cfg.skew, "batch": cfg.batch,
			},
			"phases":   phaseOut,
			"verdicts": failures,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccload: bench-out:", err)
			return 1
		}
		fmt.Printf("recorded %s (%d entries)\n", cfg.benchOut, n)
	}
	if cfg.require && len(failures) > 0 {
		return 1
	}
	return 0
}

// runSLAPhase runs one router variant with a fresh client (clean
// tracker, clean metrics) over the shared object population.
func runSLAPhase(ctx context.Context, cfg slaCfg, ph slaPhase, replicas int) (slaResult, error) {
	opts := []client.Option{client.WithSLA(cfg.spec)}
	if ph.router != nil {
		opts = append(opts, client.WithSLARouter(ph.router))
	}
	if cfg.batch {
		opts = append(opts, client.WithBatching(cfg.batchOps))
	}
	cli, err := client.New(client.NewHTTPTransport(cfg.addr), opts...)
	if err != nil {
		return slaResult{}, err
	}
	defer cli.Close()
	// Re-create (idempotently) so this client learns each object's ADT
	// — the SDK SLA-routes only operations it can classify as queries.
	for _, tg := range cfg.targets {
		if err := cli.CreateObject(ctx, tg.name, tg.t.Name()); err != nil {
			return slaResult{}, fmt.Errorf("phase %s: create: %v", ph.name, err)
		}
	}

	// Optional mid-phase partition window (adaptive phase only): cut
	// the fast replica away so its staleness grows and the router has
	// to downgrade, recording delivered-consistency misses.
	var faultWG sync.WaitGroup
	if ph.router == nil && cfg.partition > 0 {
		faultWG.Add(1)
		go func() {
			defer faultWG.Done()
			time.Sleep(cfg.duration * 3 / 10)
			groups := [][]int{{0}, make([]int, 0, replicas-1)}
			for r := 1; r < replicas; r++ {
				groups[1] = append(groups[1], r)
			}
			if err := cli.Fault(ctx, &wire.FaultRequest{Action: wire.FaultPartition, Groups: groups}); err != nil {
				fmt.Fprintln(os.Stderr, "ccload: partition:", err)
				return
			}
			time.Sleep(cfg.partition)
			if err := cli.Fault(ctx, &wire.FaultRequest{Action: wire.FaultHeal}); err != nil {
				fmt.Fprintln(os.Stderr, "ccload: heal:", err)
			}
		}()
	}

	var ops, errs atomic.Int64
	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for cl := 0; cl < cfg.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			// Pin every session to a SLOW affinity replica (1..n-1):
			// the scenario measures whether reads escape a slow home,
			// which is trivially true for sessions homed at replica 0.
			slot, round := cl%(replicas-1), cl/(replicas-1)
			sess := cli.Session(1 + slot + round*replicas)
			rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(cl)))
			dist := bench.KeyUniform
			if cfg.skew > 1 {
				dist = bench.KeyZipf
			}
			pick := bench.NewChooser(dist, cfg.skew, rng)

			var window chan *client.Future
			var cwg sync.WaitGroup
			if cfg.batch {
				window = make(chan *client.Future, cfg.pipeline)
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					for fut := range window {
						if _, err := fut.Get(ctx); err != nil {
							errs.Add(1)
						} else {
							ops.Add(1)
						}
					}
				}()
			}
			for step := 0; time.Now().Before(deadline); step++ {
				tg := cfg.targets[pick(len(cfg.targets))]
				in := tg.gen(rng, step)
				if cfg.batch {
					window <- sess.InvokeAsync(tg.name, in)
					continue
				}
				if _, err := sess.Invoke(ctx, tg.name, in); err != nil {
					errs.Add(1)
				} else {
					ops.Add(1)
				}
			}
			if cfg.batch {
				close(window)
				cwg.Wait()
			}
		}(cl)
	}
	start := time.Now()
	wg.Wait()
	faultWG.Wait()
	elapsed := time.Since(start)

	m := cli.Metrics().SLA
	res := slaResult{
		name: ph.name, ops: ops.Load(), errs: errs.Load(),
		opsPerSec: float64(ops.Load()) / elapsed.Seconds(), m: m,
	}
	if m.Reads > 0 {
		res.fastShare = float64(m.ByReplica[0]) / float64(m.Reads)
	}
	return res, nil
}
