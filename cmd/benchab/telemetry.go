package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/telemetry"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// The -telemetry mode measures the cost of *watching* an instrumented
// sampled run: the same compress kernel (call-edge instrumentation,
// full-duplication framework, counter trigger) executes under three
// observer configurations interleaved within each round —
//
//	bare        nil observer (the PR 4 baseline: fused streams stay on)
//	trace       telemetry.Trace ring recorder (every hook records)
//	suppressed  telemetry.Suppressor in front of the same Trace ring
//
// — and reports per-round same-window cost ratios (bare throughput over
// observed throughput) plus the suppressor's exact elision accounting
// from a dedicated single run. BENCH_PR4.json measured the trace
// observer at ~2.4x; this mode quantifies how much of that the
// redundancy suppressor wins back without losing a single countable
// record.

type teleElision struct {
	Forwarded   uint64            `json:"forwarded"`
	Elided      uint64            `json:"elided"`
	ElidedPct   float64           `json:"elided_pct"`
	WindowCyc   uint64            `json:"window_cycles"`
	ByKind      map[string]uint64 `json:"elided_by_kind"`
	ForwardKind map[string]uint64 `json:"forwarded_by_kind"`
}

type teleReport struct {
	PR           int                  `json:"pr"`
	Title        string               `json:"title"`
	Host         string               `json:"host"`
	Methodology  string               `json:"methodology"`
	Rounds       int                  `json:"rounds"`
	RepsPerLeg   int                  `json:"reps_per_leg"`
	Scale        float64              `json:"scale"`
	Interval     uint64               `json:"trigger_interval"`
	Throughput   map[string][]float64 `json:"m_instrs_per_sec_by_round"`
	CostTrace    []float64            `json:"cost_trace_vs_bare_by_round"`
	CostSup      []float64            `json:"cost_suppressed_vs_bare_by_round"`
	SupVsTrace   []float64            `json:"speedup_suppressed_vs_trace_by_round"`
	MedCostTrace float64              `json:"cost_trace_vs_bare"`
	MedCostSup   float64              `json:"cost_suppressed_vs_bare"`
	MedSupTrace  float64              `json:"speedup_suppressed_vs_trace"`
	Elision      teleElision          `json:"elision"`
	Notes        string               `json:"notes"`
}

// teleCompile builds the instrumented sampled compress kernel every
// telemetry leg runs.
func teleCompile(scale float64) *compile.Result {
	res, err := compile.Compile(bench.Compress(scale), compile.Options{
		Instrumenters: []instr.Instrumenter{&instr.CallEdge{}},
		Framework:     &core.Options{Variation: core.FullDuplication},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchab: compile: %v\n", err)
		os.Exit(1)
	}
	return res
}

// teleLeg runs reps sampled runs under a fresh observer built by mk (nil
// for the bare leg) and returns throughput in M simulated instructions
// per host second.
func teleLeg(res *compile.Result, interval int64, reps int, mk func() (vm.Observer, func(telemetry.Clock))) float64 {
	var instrs uint64
	start := time.Now()
	for i := 0; i < reps; i++ {
		cfg := vm.Config{Trigger: trigger.NewCounter(interval), Handlers: res.Handlers}
		var setClock func(telemetry.Clock)
		if mk != nil {
			cfg.Observer, setClock = mk()
		}
		machine := vm.New(res.Prog, cfg)
		if setClock != nil {
			setClock(machine)
		}
		out, err := machine.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchab: run failed: %v\n", err)
			os.Exit(1)
		}
		instrs += out.Stats.Instrs
	}
	return float64(instrs) / time.Since(start).Seconds() / 1e6
}

func telemetryMain(scale float64, rounds, legMS int, window uint64, out string, pr int) {
	const interval = 1000
	res := teleCompile(scale)

	mkTrace := func() (vm.Observer, func(telemetry.Clock)) {
		tr := telemetry.NewTrace(1 << 16)
		return tr, tr.SetClock
	}
	mkSup := func() (vm.Observer, func(telemetry.Clock)) {
		tr := telemetry.NewTrace(1 << 16)
		sup := telemetry.NewSuppressor(tr, window)
		return sup, func(c telemetry.Clock) { tr.SetClock(c); sup.SetClock(c) }
	}

	// Calibrate reps so one leg lasts ~legMS on the slowest configuration
	// (the traced run), then warm each configuration once.
	calStart := time.Now()
	teleLeg(res, interval, 1, mkTrace)
	per := time.Since(calStart)
	reps := int(time.Duration(legMS) * time.Millisecond / per)
	if reps < 1 {
		reps = 1
	}
	teleLeg(res, interval, 1, nil)
	teleLeg(res, interval, 1, mkSup)

	tput := map[string][]float64{}
	var costTrace, costSup, supTrace []float64
	for r := 0; r < rounds; r++ {
		bare := teleLeg(res, interval, reps, nil)
		traced := teleLeg(res, interval, reps, mkTrace)
		suppressed := teleLeg(res, interval, reps, mkSup)
		tput["bare"] = append(tput["bare"], r2(bare))
		tput["trace"] = append(tput["trace"], r2(traced))
		tput["suppressed"] = append(tput["suppressed"], r2(suppressed))
		costTrace = append(costTrace, r2(bare/traced))
		costSup = append(costSup, r2(bare/suppressed))
		supTrace = append(supTrace, r2(suppressed/traced))
	}
	medCT, medCS, medST := r2(median(costTrace)), r2(median(costSup)), r2(median(supTrace))

	// Exact elision accounting from one dedicated run.
	sink := telemetry.NewTrace(1 << 16)
	sup := telemetry.NewSuppressor(sink, window)
	machine := vm.New(res.Prog, vm.Config{
		Trigger: trigger.NewCounter(interval), Handlers: res.Handlers, Observer: sup,
	})
	sink.SetClock(machine)
	sup.SetClock(machine)
	if _, err := machine.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchab: accounting run: %v\n", err)
		os.Exit(1)
	}
	el := teleElision{
		Forwarded: sup.Forwarded(), Elided: sup.Elided(), WindowCyc: window,
		ByKind: map[string]uint64{}, ForwardKind: map[string]uint64{},
	}
	if tot := el.Forwarded + el.Elided; tot > 0 {
		el.ElidedPct = r2(100 * float64(el.Elided) / float64(tot))
	}
	for _, k := range []telemetry.EventKind{
		telemetry.EvCheckPolled, telemetry.EvCheckFired, telemetry.EvProbe, telemetry.EvYield,
	} {
		el.ByKind[k.String()] = sup.ElidedByKind(k)
		el.ForwardKind[k.String()] = sup.ForwardedByKind(k)
	}

	fmt.Printf("compress scale=%g interval=%d window=%d, %d rounds x %d reps/leg, interleaved bare/trace/suppressed\n\n",
		scale, interval, window, rounds, reps)
	fmt.Printf("%-10s %12s %12s %14s\n", "round", "bare M-i/s", "trace M-i/s", "suppress M-i/s")
	for r := 0; r < rounds; r++ {
		fmt.Printf("%-10d %12.1f %12.1f %14.1f\n", r, tput["bare"][r], tput["trace"][r], tput["suppressed"][r])
	}
	fmt.Printf("\n%-30s %8s %8s\n", "same-window ratio", "median", "range")
	fmt.Printf("%-30s %8.2f %.2f-%.2f\n", "trace cost vs bare", medCT, min(costTrace), max(costTrace))
	fmt.Printf("%-30s %8.2f %.2f-%.2f\n", "suppressed cost vs bare", medCS, min(costSup), max(costSup))
	fmt.Printf("%-30s %8.2f %.2f-%.2f\n", "suppressed speedup vs trace", medST, min(supTrace), max(supTrace))
	fmt.Printf("\nelision: %d forwarded, %d elided (%.1f%% of records), window %d cycles\n",
		el.Forwarded, el.Elided, el.ElidedPct, window)

	if out != "" {
		rep := teleReport{
			PR:    pr,
			Title: "Scenario engine + telemetry redundancy suppression: cost of watching a sampled run",
			Host:  hostName(),
			Methodology: "The same instrumented sampled compress kernel (call-edge probes, " +
				"full-duplication framework, counter trigger) runs under three observer " +
				"configurations interleaved within each round — nil observer, trace ring, " +
				"suppressor in front of the same trace ring — so every configuration samples " +
				"every time window of the shared host. Cost ratios are per-round same-window " +
				"bare/observed throughput; the median is reported. Elision counts come from " +
				"one dedicated suppressed run (the suppressor's accounting is exact, not " +
				"sampled). See BENCHMARKING.md and BENCH_PR4.json for the baseline trace cost.",
			Rounds: rounds, RepsPerLeg: reps, Scale: scale, Interval: interval,
			Throughput: tput,
			CostTrace:  costTrace, CostSup: costSup, SupVsTrace: supTrace,
			MedCostTrace: medCT, MedCostSup: medCS, MedSupTrace: medST,
			Elision: el,
			Notes: "The suppressor elides instant records (check polls/fires, probes, " +
				"yields) whose same-kind predecessor on the same thread carried the same " +
				"method and argument within the window, with a heartbeat re-forward past " +
				"the window; spans and transfers always forward. Accounting is exact " +
				"(forwarded+elided equals the VM's own event counters, enforced by " +
				"TestSuppressorEndToEnd), so consumers reconstructing counts lose nothing. " +
				"The residual cost over bare is the observer seam itself: any installed " +
				"observer disables fused streams (DESIGN.md §7.6, §9), which no amount of " +
				"record dropping recovers.",
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchab: marshal: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchab: write %s: %v\n", out, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", out)
	}
}
