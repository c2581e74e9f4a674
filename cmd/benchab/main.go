// Command benchab runs the interleaved A/B interpreter comparison
// behind the `make bench-ab` / `make fusion-smoke` targets.
//
// The host is shared and its available throughput swings between time
// windows, so absolute numbers from separate runs are only indicative
// (see BENCHMARKING.md). benchab therefore measures both dispatchers —
// the fast path (per-instruction dispatch plus fused streams) and the
// retained reference dispatcher — inside one process, alternating them
// within each round so both sample every time window, and reports
// per-round SAME-WINDOW ratios with their median. That median is the
// number the 2x interpreter target is judged on.
//
//	go run ./cmd/benchab                     # ratio table on stdout
//	go run ./cmd/benchab -o report.json      # plus a JSON report
//	go run ./cmd/benchab -quick -floor 1.0   # CI fusion-smoke gate
//
// Besides the compress ratio rounds, benchab runs every suite benchmark
// once under the fused configuration and reports its fusion coverage:
// the fused tier's share of executed instructions and the fraction
// retired inside superinstructions (vm.VM.FusionStats).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/ir"
	"instrsample/internal/vm"
)

type config struct {
	name string
	cfg  vm.Config
}

func configs() []config {
	return []config{
		{"fused", vm.Config{}},
		{"reference", vm.Config{Reference: true}},
	}
}

// leg runs the compiled program reps times under cfg and returns the
// throughput in M simulated instructions per host second.
func leg(prog *ir.Program, cfg vm.Config, reps int) float64 {
	var instrs uint64
	start := time.Now()
	for i := 0; i < reps; i++ {
		out, err := vm.New(prog, cfg).Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchab: run failed: %v\n", err)
			os.Exit(1)
		}
		instrs += out.Stats.Instrs
	}
	return float64(instrs) / time.Since(start).Seconds() / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func r2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }

// r2s rounds a copy of xs to two decimals for the report; gates are
// computed on the unrounded values.
func r2s(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = r2(x)
	}
	return out
}

type fractionRow struct {
	Benchmark     string  `json:"benchmark"`
	TierSharePct  float64 `json:"fused_tier_share_pct"`
	FusedFracPct  float64 `json:"fused_dispatch_fraction_pct"`
	Supers        int     `json:"static_superinstructions"`
	TopKinds      string  `json:"top_kinds"`
	MInstrsPerSec float64 `json:"m_instrs_per_sec"`
}

type report struct {
	PR            int                  `json:"pr"`
	Title         string               `json:"title"`
	Host          string               `json:"host"`
	Methodology   string               `json:"methodology"`
	Rounds        int                  `json:"rounds"`
	RepsPerLeg    int                  `json:"reps_per_leg"`
	Scale         float64              `json:"scale"`
	Throughput    map[string][]float64 `json:"m_instrs_per_sec_by_round"`
	RatioFusedRef []float64            `json:"ratio_fused_vs_reference_by_round"`
	RatioSameWin  float64              `json:"ratio_same_window"`
	Target        float64              `json:"target"`
	TargetMet     bool                 `json:"target_met"`
	Fractions     []fractionRow        `json:"fused_fraction_by_benchmark"`
	Notes         string               `json:"notes"`
}

func hostName() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":")) +
				" (shared; see methodology)"
		}
	}
	return "unknown"
}

func main() {
	scale := flag.Float64("scale", 0.05, "compress kernel scale for the ratio rounds")
	rounds := flag.Int("rounds", 7, "interleaved measurement rounds")
	legMS := flag.Int("leg-ms", 150, "target duration of one timed leg, milliseconds")
	quick := flag.Bool("quick", false, "CI mode: fewer, shorter rounds and a tiny suite sweep")
	floor := flag.Float64("floor", 0, "exit nonzero unless median fused/reference ratio >= floor")
	target := flag.Float64("target", 2.0, "fused-vs-reference ratio target")
	out := flag.String("o", "", "write the JSON report to this file")
	pr := flag.Int("pr", 7, "PR number recorded in the report")
	tele := flag.Bool("telemetry", false, "measure observer cost instead: interleaved bare/trace/suppressed legs on an instrumented sampled run")
	window := flag.Uint64("window", 2000, "suppressor dedup window in cycles (with -telemetry)")
	obsAB := flag.Bool("obs", false, "measure service-path observability cost instead: interleaved baseline/off/spans/full daemon legs over real HTTP")
	obsWindow := flag.Int("obs-window-ms", 3000, "fixed wall window of one config per round, milliseconds (with -obs)")
	obsClients := flag.Int("obs-clients", 4, "closed-loop HTTP clients per daemon leg (with -obs)")
	obsScale := flag.Float64("obs-scale", 0.01, "db benchmark scale per job (with -obs)")
	obsFloorOff := flag.Float64("obs-floor-off", 0.99, "gate: median off/baseline throughput ratio floor (with -obs; 0 disables)")
	obsFloorFull := flag.Float64("obs-floor-full", 0.95, "gate: median full/baseline throughput ratio floor (with -obs; 0 disables)")
	flag.Parse()
	roundsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rounds" {
			roundsSet = true
		}
	})
	if *obsAB && !roundsSet {
		// The gated daemon ratios resolve ~1% differences, so the medians
		// on a small shared host need more samples than the in-process
		// modes do.
		*rounds = 21
	}
	if *quick {
		*rounds, *legMS = 3, 30
		if *obsAB {
			*obsWindow = 400
		}
	}
	if *obsAB {
		obsMain(*obsScale, *rounds, *obsWindow, *obsClients, *obsFloorOff, *obsFloorFull, *out, *pr)
		return
	}
	if *tele {
		telemetryMain(*scale, *rounds, *legMS, *window, *out, *pr)
		return
	}

	prog := bench.Compress(*scale)
	res, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchab: compile: %v\n", err)
		os.Exit(1)
	}

	// Calibrate reps so one leg lasts ~legMS on the slowest
	// configuration (the reference dispatcher), then warm every
	// configuration once outside the timed rounds.
	refOnce := time.Now()
	if _, err := vm.New(res.Prog, vm.Config{Reference: true}).Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchab: calibration run: %v\n", err)
		os.Exit(1)
	}
	per := time.Since(refOnce)
	reps := int(time.Duration(*legMS) * time.Millisecond / per)
	if reps < 1 {
		reps = 1
	}
	for _, c := range configs() {
		leg(res.Prog, c.cfg, 1)
	}

	tput := map[string][]float64{}
	var ratioRef []float64
	for r := 0; r < *rounds; r++ {
		window := map[string]float64{}
		for _, c := range configs() {
			window[c.name] = leg(res.Prog, c.cfg, reps)
		}
		for name, v := range window {
			tput[name] = append(tput[name], r2(v))
		}
		ratioRef = append(ratioRef, r2(window["fused"]/window["reference"]))
	}
	medRef := r2(median(ratioRef))

	fmt.Printf("compress scale=%g, %d rounds x %d reps/leg, interleaved fused/reference\n\n",
		*scale, *rounds, reps)
	fmt.Printf("%-10s %14s %14s\n", "round", "fused M-i/s", "reference M-i/s")
	for r := 0; r < *rounds; r++ {
		fmt.Printf("%-10d %14.1f %14.1f\n", r, tput["fused"][r], tput["reference"][r])
	}
	fmt.Printf("\n%-28s %8s %8s\n", "same-window ratio", "median", "range")
	fmt.Printf("%-28s %8.2f %.2f-%.2f\n", "fused vs reference", medRef, min(ratioRef), max(ratioRef))
	fmt.Printf("%-28s %8.2f (target_met=%v)\n\n", "target", *target, medRef >= *target)

	// Fusion coverage across the whole suite, one fused run each.
	suiteScale := 0.02
	if *quick {
		suiteScale = 0.002
	}
	var rows []fractionRow
	fmt.Printf("%-12s %10s %10s %8s  %s\n", "benchmark", "tier-share", "fused-frac", "supers", "top kinds")
	for _, b := range bench.Suite() {
		cres, err := compile.Compile(b.Build(suiteScale), compile.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchab: compile %s: %v\n", b.Name, err)
			os.Exit(1)
		}
		m := vm.New(cres.Prog, vm.Config{})
		start := time.Now()
		outr, err := m.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchab: run %s: %v\n", b.Name, err)
			os.Exit(1)
		}
		el := time.Since(start).Seconds()
		fs, total := m.FusionStats(), outr.Stats.Instrs
		row := fractionRow{Benchmark: b.Name, Supers: fs.Supers,
			MInstrsPerSec: r2(float64(total) / el / 1e6)}
		if total > 0 {
			row.TierSharePct = r2(100 * float64(fs.Instrs) / float64(total))
		}
		if fs.Instrs > 0 {
			row.FusedFracPct = r2(100 * float64(fs.Fused) / float64(fs.Instrs))
		}
		row.TopKinds = topKinds(fs.ByKind, 3)
		rows = append(rows, row)
		fmt.Printf("%-12s %9.1f%% %9.1f%% %8d  %s\n",
			row.Benchmark, row.TierSharePct, row.FusedFracPct, row.Supers, row.TopKinds)
	}

	if *out != "" {
		rep := report{
			PR:    *pr,
			Title: "Superinstruction fusion + threaded dispatch for the fast interpreter",
			Host:  hostName(),
			Methodology: "Both dispatchers run interleaved in one process, alternating " +
				"within each round so each samples every time window; ratios are computed " +
				"per round (same window) and the median is reported. The reference " +
				"dispatcher is the seed interpreter retained unchanged, so " +
				"ratio_same_window is the honest fast-vs-seed comparison. See BENCHMARKING.md.",
			Rounds: *rounds, RepsPerLeg: reps, Scale: *scale,
			Throughput:    tput,
			RatioFusedRef: ratioRef, RatioSameWin: medRef,
			Target: *target, TargetMet: medRef >= *target,
			Fractions: rows,
			Notes: "The fast path runs pure blocks as fused streams: a peephole pass " +
				"rewrites hot pairs/triples (measured on the suite's dynamic pair profile) " +
				"into 32-byte superinstructions dispatched by a dense switch the compiler " +
				"lowers to a jump table. A [numToks]func handler table was measured and " +
				"rejected (BenchmarkFusedDispatchStyle: indirect calls force loop state " +
				"through memory). Every fused run is differentially bit-identical to the " +
				"reference dispatcher; traps, cancellation and quantum expiry inside a " +
				"superinstruction reconstruct the original pc and counters from per-block " +
				"prefix sums. Observers disable fusion (graceful degradation, " +
				"DESIGN.md §7.6).",
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchab: marshal: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchab: write %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}

	if *floor > 0 && medRef < *floor {
		fmt.Fprintf(os.Stderr, "benchab: FAIL: median fused/reference ratio %.2f below floor %.2f\n", medRef, *floor)
		os.Exit(1)
	}
}

func topKinds(byKind map[string]uint64, n int) string {
	type kv struct {
		k string
		v uint64
	}
	var s []kv
	for k, v := range byKind {
		s = append(s, kv{k, v})
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].v != s[j].v {
			return s[i].v > s[j].v
		}
		return s[i].k < s[j].k
	})
	var parts []string
	for i := 0; i < len(s) && i < n; i++ {
		parts = append(parts, s[i].k)
	}
	return strings.Join(parts, ", ")
}

func min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
