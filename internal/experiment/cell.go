package experiment

import (
	"context"
	"fmt"
	"strings"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/oracle"
	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// A Cell is the unit of work the experiment engine schedules: one
// deterministic (benchmark, compile configuration, trigger, VM
// configuration) measurement. Every artifact generator decomposes into
// cells, which lets the engine run them across a worker pool, deduplicate
// cells shared between artifacts, and cache their results on disk.
//
// Cells must be pure: Run builds a fresh program, compiles it, and
// executes it in a private VM, sharing no mutable state with any other
// cell. Two cells with equal non-empty Keys must produce identical
// results; the engine relies on this to memoize. A Cell with an empty Key
// is never deduplicated or cached.
type Cell struct {
	// Key canonically identifies the measurement ("" = uncacheable).
	Key string
	// Run performs the measurement. The context carries cancellation:
	// standard cells arm a vm.Cancel from it, so a cancelled context
	// stops the VM within one observation interval (DESIGN.md §10).
	// Run must return promptly with an error once ctx is done.
	Run func(ctx context.Context) (*CellResult, error)
	// Stage, when non-nil, is the engine's lifecycle hook for this cell:
	// the engine reports "memo-flight" (cause = the owning request's
	// Config.Owner label) when the request is parked on another flight,
	// "cache-probe" before the on-disk lookup, and "run" before Run. The
	// profiling service threads its per-job span chain through here
	// (DESIGN.md §14). Stage must be cheap and must not block.
	Stage func(stage, cause string)
}

// stage invokes the lifecycle hook if the cell carries one.
func (c Cell) stage(stage, cause string) {
	if c.Stage != nil {
		c.Stage(stage, cause)
	}
}

// CellResult is the serializable outcome of one cell: everything the
// artifact generators consume when assembling tables. Results are shared
// between generators by the engine's memo table, so consumers must treat
// them as immutable.
type CellResult struct {
	// Stats are the VM's execution counters.
	Stats vm.Stats
	// Profiles are the accumulated instrumentation profiles, in owner
	// order (matching OptsSpec.Instr).
	Profiles []*profile.Profile
	// CodeSize, CheckingCodeSize and DuplicatedCodeSize are the compiled
	// code sizes in bytes.
	CodeSize, CheckingCodeSize, DuplicatedCodeSize int
	// Work is the deterministic compile-cost measure (compile.Result.Work).
	Work int64
	// Return is the program's main return value and Output its OpPrint
	// sequence. The profiling service reports them so an HTTP job is
	// byte-comparable with a direct isamp run of the same configuration.
	Return int64
	// Output is the program's print output, in execution order.
	Output []int64
	// Aux carries artifact-specific scalars produced by custom cells
	// (e.g. the adaptive ablation's promotion count).
	Aux map[string]int64
	// Snapshots are periodic mid-run clones of the live profiles, taken
	// by the telemetry convergence recorder at the cycle cadence the
	// cell requested. Nil for ordinary cells (see Config.ConvergenceCell).
	Snapshots []ProfileSnapshot
}

// ProfileSnapshot is one mid-run clone of a cell's profiles.
type ProfileSnapshot struct {
	// Cycle is the VM cycle count the snapshot was taken at.
	Cycle uint64
	// Profiles are the cloned instrumentation profiles, in owner order.
	Profiles []*profile.Profile
}

// OptsSpec is a pure-data description of a compile.Options value, so a
// cell key can be derived from it and fresh instrumenter instances can be
// constructed inside each cell run.
type OptsSpec struct {
	// Instr names the instrumenters to apply, in owner order. Valid
	// names: "call-edge", "field-access", "path", "cct", "cct-sampled",
	// "edge", "block-count", "value", "receiver".
	Instr []string
	// Framework, when non-nil, applies the sampling framework.
	Framework *core.Options
	// ChecksOnly, when non-nil, inserts bare checks without duplication.
	ChecksOnly *core.ChecksOnly
	// Inline enables aggressive inlining before instrumentation.
	Inline bool
	// IterBudget is the VM's duplicated-code iteration budget (the
	// counted-backedge extension).
	IterBudget int64
	// Verify attaches the runtime invariant oracle (internal/oracle) to
	// the run: any invariant violation fails the cell, and the cell's
	// Aux carries the oracle's counters. The oracle keeps the VM's fast
	// path off fused streams (every block runs per instruction), so
	// verified cells cost more host time but report bit-identical
	// cycle counts; Verify is part of the cell key because Aux differs.
	Verify bool
}

// NewInstrumenter constructs a fresh instrumenter from its Name(). Its
// names are the one instrumentation vocabulary: cell keys, the isamp
// -instrument flag and the job API's instrument list all use them.
// Fresh instances per cell keep cells goroutine-safe even if an
// instrumenter ever grows compile-time state.
func NewInstrumenter(name string) (instr.Instrumenter, error) {
	switch name {
	case "call-edge":
		return &instr.CallEdge{}, nil
	case "field-access":
		return &instr.FieldAccess{}, nil
	case "path":
		return &instr.PathProfile{}, nil
	case "cct":
		return &instr.CCT{}, nil
	case "cct-sampled":
		return &instr.SampledCCT{}, nil
	case "edge":
		return &instr.EdgeProfile{}, nil
	case "block-count":
		return &instr.BlockCount{}, nil
	case "value":
		return &instr.ValueProfile{}, nil
	case "receiver":
		return &instr.ReceiverProfile{}, nil
	}
	return nil, fmt.Errorf("unknown instrumentation %q", name)
}

// Options materializes the spec into compile.Options with fresh
// instrumenter instances. Exported so the profiling service can compile
// the exact configuration a cell key names.
func (o OptsSpec) Options() (compile.Options, error) {
	opts := compile.Options{
		Framework:  o.Framework,
		ChecksOnly: o.ChecksOnly,
		Inline:     o.Inline,
	}
	for _, name := range o.Instr {
		ins, err := NewInstrumenter(name)
		if err != nil {
			return compile.Options{}, err
		}
		opts.Instrumenters = append(opts.Instrumenters, ins)
	}
	return opts, nil
}

// Key renders the spec canonically for cell identity. Exported so other
// packages (the profiling service's job keys) can compose cell keys from
// the same canonical vocabulary.
func (o OptsSpec) Key() string {
	instrs := "-"
	if len(o.Instr) > 0 {
		instrs = strings.Join(o.Instr, "+")
	}
	fw := "-"
	if o.Framework != nil {
		f := o.Framework
		fw = f.Variation.String()
		if f.YieldpointOpt {
			fw += "+yp"
		}
		if f.CountedIterations {
			fw += "+counted"
		}
		if f.HybridThreshold != 0 {
			fw += fmt.Sprintf("+ht%d", f.HybridThreshold)
		}
	}
	checks := "-"
	if o.ChecksOnly != nil {
		checks = ""
		if o.ChecksOnly.Backedges {
			checks += "be"
		}
		if o.ChecksOnly.Entries {
			checks += "me"
		}
	}
	k := fmt.Sprintf("instr=%s fw=%s checks=%s inline=%v iter=%d",
		instrs, fw, checks, o.Inline, o.IterBudget)
	if o.Verify {
		// Appended only when set so pre-oracle cache entries stay valid.
		k += " verify"
	}
	return k
}

// TriggerSpec is a pure-data description of a trigger.Trigger. Triggers
// are stateful, so each cell run constructs a fresh instance from its
// spec; sharing one instance across runs would corrupt both.
type TriggerSpec struct {
	// Kind selects the mechanism: "never", "always", "counter",
	// "randomized", "perthread" or "timer". The zero value means "never".
	Kind string
	// Interval is the sample interval for counter-family triggers.
	Interval int64
	// Jitter bounds the randomized trigger's perturbation.
	Jitter int64
	// Seed initializes the randomized trigger's PRNG.
	Seed uint64
	// Period is the timer trigger's interrupt period in cycles.
	Period uint64
	// Skew is the faulty timer's per-interrupt systematic drift.
	Skew int64
	// Step is the overflow counter's per-poll decrement.
	Step int64
	// Intervals is the retuner's cycle of sample intervals.
	Intervals []int64
	// PollsPerPhase is the retuner's phase length in polls.
	PollsPerPhase int64
}

// NeverTrigger returns the trigger spec that never fires (the
// framework-overhead configuration, and the exhaustive-instrumentation
// configuration when no framework is applied).
func NeverTrigger() TriggerSpec { return TriggerSpec{Kind: "never"} }

// AlwaysTrigger returns the spec that fires at every check (interval 1).
func AlwaysTrigger() TriggerSpec { return TriggerSpec{Kind: "always"} }

// CounterTrigger returns the counter-based trigger spec of §2.2.
func CounterTrigger(interval int64) TriggerSpec {
	return TriggerSpec{Kind: "counter", Interval: interval}
}

// RandomizedTrigger returns the randomized-interval trigger spec of §4.4.
func RandomizedTrigger(interval, jitter int64, seed uint64) TriggerSpec {
	return TriggerSpec{Kind: "randomized", Interval: interval, Jitter: jitter, Seed: seed}
}

// TimerTrigger returns the timer-interrupt trigger spec of §2.1/§4.6.
func TimerTrigger(period uint64) TriggerSpec {
	return TriggerSpec{Kind: "timer", Period: period}
}

// FaultyTimerTrigger returns the fault-injected timer spec: period with
// bounded per-interrupt jitter and systematic skew (trigger.FaultyTimer).
func FaultyTimerTrigger(period, jitter uint64, skew int64, seed uint64) TriggerSpec {
	return TriggerSpec{Kind: "faulty-timer", Period: period, Jitter: int64(jitter), Skew: skew, Seed: seed}
}

// OverflowCounterTrigger returns the counter spec whose internal state
// starts adjacent to integer overflow (trigger.OverflowCounter).
func OverflowCounterTrigger(interval, step int64) TriggerSpec {
	return TriggerSpec{Kind: "overflow-counter", Interval: interval, Step: step}
}

// RetunerTrigger returns the spec that re-tunes a counter trigger's
// interval mid-run, cycling through intervals every pollsPerPhase polls
// (trigger.Retuner).
func RetunerTrigger(intervals []int64, pollsPerPhase int64) TriggerSpec {
	return TriggerSpec{Kind: "retuner", Intervals: intervals, PollsPerPhase: pollsPerPhase}
}

// New constructs a fresh trigger instance from the spec.
func (s TriggerSpec) New() trigger.Trigger {
	switch s.Kind {
	case "", "never":
		return trigger.Never{}
	case "always":
		return trigger.Always{}
	case "counter":
		return trigger.NewCounter(s.Interval)
	case "randomized":
		return trigger.NewRandomized(s.Interval, s.Jitter, s.Seed)
	case "perthread":
		return trigger.NewPerThread(s.Interval)
	case "timer":
		return trigger.NewTimer(s.Period)
	case "faulty-timer":
		return trigger.NewFaultyTimer(s.Period, uint64(s.Jitter), s.Skew, s.Seed)
	case "overflow-counter":
		return trigger.NewOverflowCounter(s.Interval, s.Step)
	case "retuner":
		return trigger.NewRetuner(s.Intervals, s.PollsPerPhase)
	}
	panic(fmt.Sprintf("experiment: unknown trigger kind %q", s.Kind))
}

// Name returns the report label of the trigger this spec constructs.
func (s TriggerSpec) Name() string { return s.New().Name() }

// Key renders the spec canonically for cell identity.
func (s TriggerSpec) Key() string {
	switch s.Kind {
	case "", "never":
		return "trig=never"
	case "always":
		return "trig=always"
	case "counter":
		return fmt.Sprintf("trig=counter/%d", s.Interval)
	case "randomized":
		return fmt.Sprintf("trig=randomized/%d±%d/%d", s.Interval, s.Jitter, s.Seed)
	case "perthread":
		return fmt.Sprintf("trig=perthread/%d", s.Interval)
	case "timer":
		return fmt.Sprintf("trig=timer/%d", s.Period)
	case "faulty-timer":
		return fmt.Sprintf("trig=faulty-timer/%d±%d%+d/%d", s.Period, s.Jitter, s.Skew, s.Seed)
	case "overflow-counter":
		return fmt.Sprintf("trig=overflow-counter/%d/%d", s.Interval, s.Step)
	case "retuner":
		parts := make([]string, len(s.Intervals))
		for i, iv := range s.Intervals {
			parts[i] = fmt.Sprintf("%d", iv)
		}
		return fmt.Sprintf("trig=retuner/%s/%d", strings.Join(parts, ","), s.PollsPerPhase)
	}
	return "trig=" + s.Kind
}

// Cell builds the standard measurement cell: compile the named benchmark
// under the spec'd options and execute it under the spec'd trigger, with
// the Config's scale and i-cache setting. The cell key identifies the
// measurement independently of which artifact requested it, which is what
// lets the engine share cells across artifacts.
func (c Config) Cell(benchName string, o OptsSpec, t TriggerSpec) Cell {
	key := fmt.Sprintf("bench=%s scale=%g icache=%v %s %s",
		benchName, c.Scale, c.ICache, o.Key(), t.Key())
	return Cell{Key: key, Run: func(ctx context.Context) (*CellResult, error) {
		return c.runCell(ctx, benchName, o, t, 0)
	}}
}

// ConvergenceCell builds a measurement cell that additionally clones the
// live profiles every convInterval cycles (telemetry.Convergence), so
// artifacts can plot accuracy against executed cycles. The interval is
// part of the cell key — convergence cells never collide with standard
// cells, and pre-telemetry cache entries stay valid.
func (c Config) ConvergenceCell(benchName string, o OptsSpec, t TriggerSpec, convInterval uint64) Cell {
	key := fmt.Sprintf("bench=%s scale=%g icache=%v %s %s conv=%d",
		benchName, c.Scale, c.ICache, o.Key(), t.Key(), convInterval)
	return Cell{Key: key, Run: func(ctx context.Context) (*CellResult, error) {
		return c.runCell(ctx, benchName, o, t, convInterval)
	}}
}

// runCell performs the standard cell measurement; convInterval > 0 also
// records periodic profile snapshots. A cancellable ctx arms a vm.Cancel
// token so the measurement stops within one observation interval of the
// context being cancelled; the returned error then wraps both ctx.Err()
// and the vm.CancelError (so errors.Is(err, context.Canceled) and
// vm.IsCancelled(err) both hold).
func (c Config) runCell(ctx context.Context, benchName string, o OptsSpec, t TriggerSpec, convInterval uint64) (*CellResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	build, err := BenchBuilder(benchName)
	if err != nil {
		return nil, err
	}
	prog := build(c.Scale)
	copts, err := o.Options()
	if err != nil {
		return nil, err
	}
	cr, err := compile.Compile(prog, copts)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", benchName, err)
	}
	vcfg := vm.Config{
		Trigger:    t.New(),
		Handlers:   cr.Handlers,
		ICache:     c.icache(),
		IterBudget: o.IterBudget,
	}
	if ctx.Done() != nil {
		tok := vm.NewCancel()
		vcfg.Cancel = tok
		stop := context.AfterFunc(ctx, tok.Fire)
		defer stop()
	}
	var observers []vm.Observer
	var orc *oracle.Oracle
	if o.Verify {
		orc = oracle.New()
		observers = append(observers, orc)
	}
	var conv *telemetry.Convergence
	if convInterval > 0 {
		conv = telemetry.NewConvergence(convInterval, 0, func() []*profile.Profile {
			live := make([]*profile.Profile, len(cr.Runtimes))
			for i, rt := range cr.Runtimes {
				live[i] = rt.Profile()
			}
			return live
		})
		observers = append(observers, conv)
	}
	vcfg.Observer = vm.CombineObservers(observers...)
	v := vm.New(cr.Prog, vcfg)
	if conv != nil {
		conv.SetClock(v)
	}
	out, err := v.Run()
	if err != nil {
		if vm.IsCancelled(err) && ctx.Err() != nil {
			return nil, fmt.Errorf("%s: %w (%w)", benchName, ctx.Err(), err)
		}
		return nil, fmt.Errorf("%s: run: %w", benchName, err)
	}
	res := &CellResult{
		Stats:              out.Stats,
		CodeSize:           cr.CodeSize,
		CheckingCodeSize:   cr.CheckingCodeSize,
		DuplicatedCodeSize: cr.DuplicatedCodeSize,
		Work:               cr.Work,
		Return:             out.Return,
		Output:             out.Output,
	}
	if orc != nil {
		if err := orc.Finish(out.Stats); err != nil {
			return nil, fmt.Errorf("%s: oracle: %w", benchName, err)
		}
		res.Aux = map[string]int64{
			"oracle-events":      int64(orc.Events()),
			"oracle-expected-p1": int64(orc.ExpectedPropertyViolations()),
		}
	}
	for _, rt := range cr.Runtimes {
		res.Profiles = append(res.Profiles, rt.Profile())
	}
	if conv != nil {
		for _, pt := range conv.Points() {
			res.Snapshots = append(res.Snapshots, ProfileSnapshot{
				Cycle:    pt.Cycle,
				Profiles: pt.Profiles,
			})
		}
	}
	return res, nil
}

// BenchBuilder looks up the builder of a named benchmark: a suite
// member or "resonant", the purpose-built periodic workload of the
// resonance ablation. Cells and bench jobs both name programs this way.
// Each build returns a fresh sealed program, so cells never share IR.
func BenchBuilder(name string) (func(scale float64) *ir.Program, error) {
	if name == "resonant" {
		return bench.Resonant, nil
	}
	b, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return b.Build, nil
}

// A Ref is a handle to one cell's pending result within a Batch. It
// becomes readable after the Batch runs.
type Ref struct {
	b *Batch
	i int
}

// R returns the cell's result. It panics if the Batch has not run yet.
func (r *Ref) R() *CellResult {
	if r.i >= len(r.b.results) {
		panic("experiment: Ref read before Batch.Run")
	}
	return r.b.results[r.i]
}

// A Batch collects the cells one artifact generator needs and runs them
// through the Config's engine. Generators request every cell up front
// (so independent cells can execute concurrently), call Run, then
// assemble their table from the Refs in deterministic order — which is
// why artifact output is byte-identical at any worker count.
//
// Run may be called repeatedly: each call executes the cells added since
// the previous call. This supports artifacts whose later cells depend on
// earlier results (Table 5 derives its timer period from the baseline
// run's cycle count).
type Batch struct {
	cfg     Config
	cells   []Cell
	results []*CellResult
}

// NewBatch returns an empty batch bound to the Config.
func (c Config) NewBatch() *Batch { return &Batch{cfg: c} }

// Cell adds a standard measurement cell (see Config.Cell) and returns its
// handle.
func (b *Batch) Cell(benchName string, o OptsSpec, t TriggerSpec) *Ref {
	return b.Add(b.cfg.Cell(benchName, o, t))
}

// Add appends an arbitrary cell and returns its handle.
func (b *Batch) Add(c Cell) *Ref {
	b.cells = append(b.cells, c)
	return &Ref{b: b, i: len(b.cells) - 1}
}

// Run executes every cell added since the last Run and publishes their
// results to the corresponding Refs. The first cell error (in add order)
// is returned.
func (b *Batch) Run() error {
	pending := b.cells[len(b.results):]
	res, err := b.cfg.engine().Do(b.cfg, pending)
	if err != nil {
		return err
	}
	b.results = append(b.results, res...)
	return nil
}
