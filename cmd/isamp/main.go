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
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"instrsample/internal/asm"
	"instrsample/internal/bench"
	"instrsample/internal/experiment"
	"instrsample/internal/ir"
	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
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
  -interval N        sample interval of the counter, perthread and random
                     triggers (default 1000; 0 fires at every check;
                     negative is an error)
  -trigger NAME      counter | perthread | timer | random | never | always |
                     faulty-timer (period/jitter fault injection)
  -period N          timer trigger period in cycles (default 3330000 = 10ms @333MHz)
  -jitter N          random trigger jitter (default interval/10); faulty-timer
                     jitter (default period/2)
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
	fs.Int64Var(&o.interval, "interval", experiment.DefaultInterval, "sample interval")
	fs.StringVar(&o.trig, "trigger", "counter", "trigger kind")
	fs.Uint64Var(&o.period, "period", experiment.DefaultPeriod, "timer period (cycles)")
	fs.Int64Var(&o.jitter, "jitter", 0, "randomized trigger jitter")
	fs.BoolVar(&o.icache, "icache", false, "enable i-cache model")
	fs.BoolVar(&o.verify, "verify", false, "attach the runtime invariant oracle")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON execution trace")
	fs.IntVar(&o.traceCap, "trace-cap", 1<<16, "per-thread trace ring capacity (events)")
	fs.StringVar(&o.metricsOut, "metrics", "", "write a metrics time series (CSV, or JSON if the path ends in .json)")
	fs.Uint64Var(&o.metricsInt, "metrics-interval", experiment.DefaultCadence, "metrics capture cadence in cycles")
	fs.IntVar(&o.top, "top", 10, "profile entries to print")
	fs.Float64Var(&o.scale, "scale", experiment.DefaultScale, "benchmark scale")
	fs.BoolVar(&o.list, "list", false, "list benchmarks")
	fs.BoolVar(&o.jsonOut, "json", false, "emit profiles as JSON")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	return o, fs.Args(), nil
}

// optsSpec maps the compile flags to the experiment vocabulary.
func (o *options) optsSpec() (experiment.OptsSpec, error) {
	fw, err := experiment.Framework(o.variation, o.yieldopt)
	if err != nil {
		return experiment.OptsSpec{}, err
	}
	spec := experiment.OptsSpec{Framework: fw, Verify: o.verify}
	for _, name := range strings.Split(o.instrument, ",") {
		if name = strings.TrimSpace(name); name != "" {
			spec.Instr = append(spec.Instr, name)
		}
	}
	return spec, nil
}

// disasm prints the compiled (and transformed) program.
func (o *options) disasm(prog *ir.Program) error {
	spec, err := o.optsSpec()
	if err != nil {
		return err
	}
	res, err := spec.Compile(prog)
	if err != nil {
		return err
	}
	ir.FprintProgram(os.Stdout, res.Prog)
	fmt.Printf("; code size %d bytes (checking %d, duplicated %d)\n",
		res.CodeSize, res.CheckingCodeSize, res.DuplicatedCodeSize)
	if spec.Framework != nil {
		fmt.Printf("; framework: %s\n", res.FrameworkStats)
	}
	return nil
}

// execute compiles and runs prog through the experiment package's run
// path, the one isampd jobs take, writes the report to w and returns the
// measured result.
func (o *options) execute(w io.Writer, prog *ir.Program) (*experiment.CellResult, error) {
	spec, err := o.optsSpec()
	if err != nil {
		return nil, err
	}
	trig, err := experiment.NamedTrigger(o.trig, o.interval, o.period, o.jitter)
	if err != nil {
		return nil, err
	}
	cr, err := spec.Compile(prog)
	if err != nil {
		return nil, err
	}
	vs := experiment.VMSpec{Trigger: trig}
	if o.icache {
		vs.ICache = vm.DefaultICache()
	}
	// Observers compose: the oracle (spec.Verify), the trace recorder and
	// the meter can all watch one run.
	var tr *telemetry.Trace
	if o.tracePath != "" {
		tr = telemetry.NewTrace(o.traceCap)
		vs.Observers = append(vs.Observers, tr)
	}
	var meter *telemetry.Meter
	if o.metricsOut != "" {
		meter = telemetry.NewMeter(telemetry.NewRegistry(), trig.Name(), o.metricsInt, nil)
		vs.Observers = append(vs.Observers, meter)
	}
	res, err := experiment.Prepare(context.Background(), cr, spec, vs).Execute()
	if err != nil {
		return nil, err
	}
	if o.verify {
		fmt.Fprintf(w, "oracle: ok (%d events observed, %d expected property-1 excesses)\n",
			res.Aux["oracle-events"], res.Aux["oracle-expected-p1"])
	}
	if tr != nil {
		if err := writeTrace(o.tracePath, tr); err != nil {
			return nil, err
		}
		var total uint64
		for tid := 0; tid < tr.Threads(); tid++ {
			total += tr.Total(tid)
		}
		fmt.Fprintf(w, "trace: %d events (%d dropped) on %d threads -> %s\n",
			total, tr.TotalDrops(), tr.Threads(), o.tracePath)
	}
	if meter != nil {
		meter.Finish()
		if err := writeMetrics(o.metricsOut, meter.Series()); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "metrics: %d captures every %d cycles -> %s\n",
			len(meter.Series().Rows), o.metricsInt, o.metricsOut)
	}
	fmt.Fprintf(w, "result: %d\n", res.Return)
	if len(res.Output) > 0 {
		fmt.Fprintf(w, "output: %v\n", res.Output)
	}
	s := res.Stats
	fmt.Fprintf(w, "cycles: %d  instrs: %d  entries: %d  backedges: %d\n",
		s.Cycles, s.Instrs, s.MethodEntries, s.Backedges)
	if s.Checks > 0 {
		fmt.Fprintf(w, "checks: %d  samples: %d  probes: %d\n", s.Checks, s.CheckFires, s.Probes)
	}
	if s.ICacheMisses > 0 {
		fmt.Fprintf(w, "icache misses: %d\n", s.ICacheMisses)
	}
	for _, p := range res.Profiles {
		if o.jsonOut {
			data, err := json.MarshalIndent(p, "", "  ")
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(w, string(data))
			continue
		}
		p.Fprint(w, o.top)
	}
	return res, nil
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
	if disasmOnly {
		return o.disasm(prog)
	}
	_, err = o.execute(os.Stdout, prog)
	return err
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
	_, err = o.execute(os.Stdout, b.Build(o.scale))
	return err
}
