package main

// The -scenario mode: drive a named cc/bench workload against the
// server, open loop (-rate) or closed, optionally ramping the offered
// rate to find the knee of the throughput/latency curve. Everything —
// op generation, arrival clocks, histograms, knee detection — comes
// from cc/bench; this file only wires flags, printing and exit codes.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/paper-repro/ccbm/cc/bench"
	"github.com/paper-repro/ccbm/cc/client"
	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

// scenarioCfg carries the scenario mode's knobs from main's flags.
type scenarioCfg struct {
	addr     string
	scenario string
	workers  int
	objects  int
	duration time.Duration
	seed     int64
	rate     float64
	arrival  bench.Arrival
	batch    bool
	batchOps int

	ramp        bool
	rampStart   float64
	rampFactor  float64
	rampSteps   int
	rampStepDur time.Duration
	kneeFloor   float64
	kneeP99     time.Duration
	requireKnee bool

	requireVerdicts bool
	benchOut        string
	label           string
}

// runScenario drives the scenario and returns the process exit code.
func runScenario(cfg scenarioCfg) int {
	ctx := context.Background()
	var opts []client.Option
	if cfg.batch {
		opts = append(opts, client.WithBatching(cfg.batchOps))
	}
	cli, err := client.New(client.NewHTTPTransport(cfg.addr), opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccload:", err)
		return 2
	}
	defer cli.Close()
	if err := waitHealthy(cli, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "ccload:", err)
		return 1
	}

	run := bench.RunConfig{
		Workers: cfg.workers, Rate: cfg.rate, Arrival: cfg.arrival,
		Duration: cfg.duration, Seed: cfg.seed,
	}
	w, err := bench.NewScenario(cfg.scenario, cfg.objects, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccload:", err)
		return 2
	}
	exec := bench.NewClientExecutor(cli, 0)

	var result bench.LoadResult
	kneeFound := false
	if cfg.ramp {
		rc := bench.RampConfig{
			StartRate: cfg.rampStart, Factor: cfg.rampFactor, Steps: cfg.rampSteps,
			StepDuration: cfg.rampStepDur, FloorRatio: cfg.kneeFloor, MaxP99: cfg.kneeP99,
		}
		fmt.Printf("ccload: scenario %s ramp from %.0f ops/s (x%.2f, %d steps of %v, floor %.2f)\n",
			w.Name(), rc.StartRate, rc.Factor, rc.Steps, rc.StepDuration, rc.FloorRatio)
		rr, err := bench.Ramp(ctx, w, exec, run, rc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccload: ramp:", err)
			return 1
		}
		for i, st := range rr.Steps {
			state := "sustained"
			if !st.Sustained {
				state = "BROKE"
			}
			fmt.Printf("ramp step %d: offered=%.0f achieved=%.0f ops/s p99=%.0fµs errors=%d %s\n",
				i, st.OfferedRate, st.AchievedRate, st.P99US, st.Errors, state)
		}
		if rr.Knee != nil {
			kneeFound = true
			fmt.Printf("knee: %.0f ops/s offered (%.0f achieved, p99=%.0fµs) at step %d — %s\n",
				rr.Knee.Rate, rr.Knee.Achieved, rr.Knee.P99US, rr.Knee.Step, rr.Knee.Reason)
		} else {
			fmt.Println("knee: none — even the first step was unsustained")
		}
		result = rr.Result()
	} else {
		mode := fmt.Sprintf("open loop (%s) offered=%.0f ops/s", cfg.arrival, cfg.rate)
		if cfg.rate <= 0 {
			mode = "closed loop"
		}
		fmt.Printf("ccload: scenario %s, %s, %d workers, %v\n", w.Name(), mode, cfg.workers, cfg.duration)
		rep, err := bench.Run(ctx, w, exec, run)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccload: run:", err)
			return 1
		}
		printReport(rep)
		result = rep.Result()
	}

	sum, err := cli.MonitorSummary(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccload: monitor:", err)
		sum = &wire.MonitorSummary{}
	}
	monJSON, _ := json.Marshal(sum)
	fmt.Printf("monitor %s\n", monJSON)

	if cfg.benchOut != "" {
		lbl := cfg.label
		if lbl == "" {
			lbl = "ccload scenario " + cfg.scenario
		}
		n, err := bench.AppendRecord(cfg.benchOut, lbl, map[string]any{
			"load":    result,
			"monitor": sum,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccload: bench-out:", err)
			return 1
		}
		fmt.Printf("recorded %s (%d entries)\n", cfg.benchOut, n)
	}

	code := 0
	if cfg.requireVerdicts && sum.Verdicts == 0 {
		fmt.Fprintln(os.Stderr, "ccload: monitor produced no verdicts")
		code = 1
	}
	if len(sum.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "ccload: monitor reported %d violations\n", len(sum.Violations))
		code = 1
	}
	if result.Ops == 0 {
		fmt.Fprintln(os.Stderr, "ccload: no operation completed")
		code = 1
	}
	if cfg.requireKnee && !kneeFound {
		fmt.Fprintln(os.Stderr, "ccload: ramp found no sustained step")
		code = 1
	}
	return code
}

// printReport prints one Run's outcome: throughput, both latency
// clocks, and the realized op mix.
func printReport(rep *bench.Report) {
	if rep.Offered > 0 {
		fmt.Printf("ccload: %d ops in %v (%.0f ops/s achieved of %.0f offered), %d errors\n",
			rep.Ops, rep.Elapsed.Round(time.Millisecond), rep.Achieved, rep.Offered, rep.Errors)
	} else {
		fmt.Printf("ccload: %d ops in %v (%.0f ops/s), %d errors\n",
			rep.Ops, rep.Elapsed.Round(time.Millisecond), rep.Achieved, rep.Errors)
	}
	printPct := func(name string, p bench.Percentiles) {
		fmt.Printf("%-8s n=%d mean=%.0f p50=%.0f p95=%.0f p99=%.0f p999=%.0f max=%.0f µs\n",
			name, p.Count, p.MeanUS, p.P50US, p.P95US, p.P99US, p.P999US, p.MaxUS)
	}
	printPct("intended", rep.Intended.Percentiles())
	printPct("service", rep.Service.Percentiles())
	parts := make([]string, 0, len(rep.Mix))
	for _, kind := range sortedKeys(rep.Mix) {
		parts = append(parts, fmt.Sprintf("%s=%.3f", kind, rep.Mix[kind]))
	}
	fmt.Printf("mix     %s\n", strings.Join(parts, " "))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
