// Command isamp assembles, instruments, transforms and runs programs in
// the VM, exposing the full sampling-framework pipeline from the command
// line:
//
//	isamp run prog.vasm
//	isamp run -instrument call-edge,field-access -variation full -interval 1000 prog.vasm
//	isamp run -instrument field-access -trigger timer -period 100000 prog.vasm
//	isamp disasm -instrument call-edge -variation partial prog.vasm
//	isamp bench -instrument call-edge,field-access -interval 1000 compress
//
// Profiles are printed after the run; -top controls how many entries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"instrsample/internal/asm"
	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/experiment"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/oracle"
	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "disasm":
		err = cmdRun(os.Args[2:], true)
	case "bench":
		err = cmdBench(os.Args[2:])
	case "overlap":
		err = cmdOverlap(os.Args[2:])
	case "scenario":
		err = cmdScenario(os.Args[2:])
	case "version", "-version", "--version":
		// The build ID keys the experiment engine's on-disk result cache;
		// isamp, experiments and isampd all print the same one.
		fmt.Println(experiment.BuildID())
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "isamp:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  isamp run    [flags] prog.vasm   assemble, compile and execute a program
  isamp disasm [flags] prog.vasm   print the compiled (and transformed) IR
  isamp bench  [flags] <name>      run a suite benchmark (see -list)
  isamp overlap a.json b.json      overlap %% of two saved profiles (-json output)
  isamp scenario [flags]           run a seeded workload family as correctness
                                   probes: every member executes under the oracle
                                   on both dispatchers, bit-identical or it fails;
                                   -spec FILE | -seed N -count N select the family,
                                   -index N one member, -record/-replay FILE
                                   serialize and re-verify a run's trigger and
                                   schedule decisions, -hash prints the receipt
  isamp version                    print the cache-keying build ID

flags (run/disasm/bench):
  -instrument LIST   comma-separated: call-edge,field-access,edge,block-count,
                     path,value,cct,cct-sampled,receiver
  -variation NAME    full | partial | nodup | hybrid (requires -instrument)
  -yieldopt          apply the yieldpoint optimization
  -interval N        counter trigger sample interval (default 1000)
  -trigger NAME      counter | perthread | timer | random | never | always |
                     faulty-timer (period/jitter fault injection)
  -period N          timer trigger period in cycles (default 3330000 = 10ms @333MHz)
  -jitter N          randomized trigger jitter (default interval/10)
  -icache            enable the i-cache model
  -verify            attach the runtime invariant oracle (DESIGN.md §8) and
                     fail the run on any sampling-invariant violation
  -trace FILE        record a ring-buffered execution trace and write it as
                     Chrome trace-event JSON (open in chrome://tracing or
                     https://ui.perfetto.dev); composes with -verify
  -trace-cap N       per-thread trace ring capacity in events (default 65536;
                     oldest events are overwritten and counted as drops)
  -metrics FILE      record a metrics time series; written as CSV, or JSON
                     when FILE ends in .json
  -metrics-interval N  metrics capture cadence in VM cycles (default 65536)
  -top N             profile entries to print (default 10)
  -json              emit profiles as JSON (all entries)
  -scale F           benchmark scale (bench only, default 0.1)
  -list              list benchmarks (bench only)
`)
}

type options struct {
	jsonOut    bool
	instrument string
	variation  string
	yieldopt   bool
	interval   int64
	trig       string
	period     uint64
	jitter     int64
	icache     bool
	verify     bool
	tracePath  string
	traceCap   int
	metricsOut string
	metricsInt uint64
	top        int
	scale      float64
	list       bool
}

func parseFlags(name string, args []string) (*options, []string, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.instrument, "instrument", "", "instrumentations")
	fs.StringVar(&o.variation, "variation", "", "framework variation")
	fs.BoolVar(&o.yieldopt, "yieldopt", false, "yieldpoint optimization")
	fs.Int64Var(&o.interval, "interval", 1000, "sample interval")
	fs.StringVar(&o.trig, "trigger", "counter", "trigger kind")
	fs.Uint64Var(&o.period, "period", 3330000, "timer period (cycles)")
	fs.Int64Var(&o.jitter, "jitter", 0, "randomized trigger jitter")
	fs.BoolVar(&o.icache, "icache", false, "enable i-cache model")
	fs.BoolVar(&o.verify, "verify", false, "attach the runtime invariant oracle")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON execution trace")
	fs.IntVar(&o.traceCap, "trace-cap", 1<<16, "per-thread trace ring capacity (events)")
	fs.StringVar(&o.metricsOut, "metrics", "", "write a metrics time series (CSV, or JSON if the path ends in .json)")
	fs.Uint64Var(&o.metricsInt, "metrics-interval", 1<<16, "metrics capture cadence in cycles")
	fs.IntVar(&o.top, "top", 10, "profile entries to print")
	fs.Float64Var(&o.scale, "scale", 0.1, "benchmark scale")
	fs.BoolVar(&o.list, "list", false, "list benchmarks")
	fs.BoolVar(&o.jsonOut, "json", false, "emit profiles as JSON")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	return o, fs.Args(), nil
}

func (o *options) instrumenters() ([]instr.Instrumenter, error) {
	if o.instrument == "" {
		return nil, nil
	}
	var out []instr.Instrumenter
	for _, name := range strings.Split(o.instrument, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		ins, err := experiment.NewInstrumenter(name)
		if err != nil {
			return nil, err
		}
		out = append(out, ins)
	}
	return out, nil
}

func (o *options) framework() (*core.Options, error) {
	if o.variation == "" {
		if o.yieldopt {
			return nil, fmt.Errorf("-yieldopt requires -variation")
		}
		return nil, nil
	}
	var v core.Variation
	switch o.variation {
	case "full":
		v = core.FullDuplication
	case "partial":
		v = core.PartialDuplication
	case "nodup":
		v = core.NoDuplication
	case "hybrid":
		v = core.Hybrid
	default:
		return nil, fmt.Errorf("unknown variation %q (want full, partial, nodup, hybrid)", o.variation)
	}
	return &core.Options{Variation: v, YieldpointOpt: o.yieldopt}, nil
}

func (o *options) trigger() (trigger.Trigger, error) {
	switch o.trig {
	case "counter":
		return trigger.NewCounter(o.interval), nil
	case "perthread":
		return trigger.NewPerThread(o.interval), nil
	case "timer":
		return trigger.NewTimer(o.period), nil
	case "faulty-timer":
		j := uint64(o.jitter)
		if j == 0 {
			j = o.period / 2
		}
		return trigger.NewFaultyTimer(o.period, j, 0, 1), nil
	case "random":
		j := o.jitter
		if j == 0 {
			j = o.interval / 10
		}
		return trigger.NewRandomized(o.interval, j, 1), nil
	case "never":
		return trigger.Never{}, nil
	case "always":
		return trigger.Always{}, nil
	default:
		return nil, fmt.Errorf("unknown trigger %q", o.trig)
	}
}

func (o *options) execute(prog *ir.Program, disasmOnly bool) error {
	instrs, err := o.instrumenters()
	if err != nil {
		return err
	}
	fw, err := o.framework()
	if err != nil {
		return err
	}
	res, err := compile.Compile(prog, compile.Options{Instrumenters: instrs, Framework: fw})
	if err != nil {
		return err
	}
	if disasmOnly {
		ir.FprintProgram(os.Stdout, res.Prog)
		fmt.Printf("; code size %d bytes (checking %d, duplicated %d)\n",
			res.CodeSize, res.CheckingCodeSize, res.DuplicatedCodeSize)
		if fw != nil {
			fmt.Printf("; framework: %s\n", res.FrameworkStats)
		}
		return nil
	}
	trig, err := o.trigger()
	if err != nil {
		return err
	}
	cfg := vm.Config{Trigger: trig, Handlers: res.Handlers}
	if o.icache {
		cfg.ICache = vm.DefaultICache()
	}
	// Observers compose: the oracle, the trace recorder and the meter can
	// all watch one run (vm.CombineObservers elides the absent ones).
	var observers []vm.Observer
	var orc *oracle.Oracle
	if o.verify {
		orc = oracle.New()
		observers = append(observers, orc)
	}
	var tr *telemetry.Trace
	if o.tracePath != "" {
		tr = telemetry.NewTrace(o.traceCap)
		observers = append(observers, tr)
	}
	var meter *telemetry.Meter
	if o.metricsOut != "" {
		meter = telemetry.NewMeter(telemetry.NewRegistry(), trig.Name(), o.metricsInt, nil)
		observers = append(observers, meter)
	}
	cfg.Observer = vm.CombineObservers(observers...)
	v := vm.New(res.Prog, cfg)
	if tr != nil {
		tr.SetClock(v)
	}
	if meter != nil {
		meter.SetClock(v)
	}
	out, err := v.Run()
	if err != nil {
		return err
	}
	if orc != nil {
		if err := orc.Finish(out.Stats); err != nil {
			return fmt.Errorf("invariant oracle: %w", err)
		}
		fmt.Printf("oracle: ok (%d events observed, %d expected property-1 excesses)\n",
			orc.Events(), orc.ExpectedPropertyViolations())
	}
	if tr != nil {
		if err := writeTrace(o.tracePath, tr); err != nil {
			return err
		}
		var total uint64
		for tid := 0; tid < tr.Threads(); tid++ {
			total += tr.Total(tid)
		}
		fmt.Printf("trace: %d events (%d dropped) on %d threads -> %s\n",
			total, tr.TotalDrops(), tr.Threads(), o.tracePath)
	}
	if meter != nil {
		meter.Finish()
		if err := writeMetrics(o.metricsOut, meter.Series()); err != nil {
			return err
		}
		fmt.Printf("metrics: %d captures every %d cycles -> %s\n",
			len(meter.Series().Rows), o.metricsInt, o.metricsOut)
	}
	fmt.Printf("result: %d\n", out.Return)
	if len(out.Output) > 0 {
		fmt.Printf("output: %v\n", out.Output)
	}
	s := out.Stats
	fmt.Printf("cycles: %d  instrs: %d  entries: %d  backedges: %d\n",
		s.Cycles, s.Instrs, s.MethodEntries, s.Backedges)
	if s.Checks > 0 {
		fmt.Printf("checks: %d  samples: %d  probes: %d\n", s.Checks, s.CheckFires, s.Probes)
	}
	if s.ICacheMisses > 0 {
		fmt.Printf("icache misses: %d\n", s.ICacheMisses)
	}
	for _, rt := range res.Runtimes {
		if o.jsonOut {
			data, err := json.MarshalIndent(rt.Profile(), "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			continue
		}
		rt.Profile().Fprint(os.Stdout, o.top)
	}
	return nil
}

// writeTrace exports the trace recorder as Chrome trace-event JSON.
func writeTrace(path string, tr *telemetry.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics exports the meter's time series, choosing the format from
// the file extension (.json = JSON, anything else = CSV).
func writeMetrics(path string, s *telemetry.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := s.WriteCSV
	if strings.HasSuffix(path, ".json") {
		werr = s.WriteJSON
	}
	if err := werr(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdRun(args []string, disasmOnly bool) error {
	o, rest, err := parseFlags("run", args)
	if err != nil {
		return err
	}
	if len(rest) != 1 {
		return fmt.Errorf("expected exactly one .vasm file")
	}
	src, err := os.ReadFile(rest[0])
	if err != nil {
		return err
	}
	prog, err := asm.Assemble(rest[0], string(src))
	if err != nil {
		return err
	}
	return o.execute(prog, disasmOnly)
}

// cmdOverlap computes the paper's overlap-percentage metric between two
// profiles previously saved with -json.
func cmdOverlap(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("expected exactly two profile JSON files")
	}
	load := func(path string) (*profile.Profile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var p profile.Profile
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &p, nil
	}
	a, err := load(args[0])
	if err != nil {
		return err
	}
	b, err := load(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%s (%d events, %d samples) vs %s (%d events, %d samples)\n",
		a.Name, a.NumEvents(), a.Total(), b.Name, b.NumEvents(), b.Total())
	fmt.Printf("overlap: %.2f%%\n", profile.Overlap(a, b))
	return nil
}

func cmdBench(args []string) error {
	o, rest, err := parseFlags("bench", args)
	if err != nil {
		return err
	}
	if o.list {
		for _, b := range bench.Suite() {
			fmt.Printf("%-12s %s\n", b.Name, b.Description)
		}
		return nil
	}
	if len(rest) != 1 {
		return fmt.Errorf("expected exactly one benchmark name (use -list)")
	}
	b, err := bench.ByName(rest[0])
	if err != nil {
		return err
	}
	return o.execute(b.Build(o.scale), false)
}
