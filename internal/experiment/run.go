package experiment

import (
	"context"
	"fmt"

	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/oracle"
	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
	"instrsample/internal/vm"
)

// Defaults of the named-run vocabulary. The isamp flags and the job API
// (service.JobSpec) both read them, so a command line and a job that
// leave a value unset describe the same run.
const (
	// DefaultInterval is the counter-family sample interval.
	DefaultInterval = 1000
	// DefaultPeriod is the timer trigger period in cycles (10 ms at
	// 333 MHz).
	DefaultPeriod = 3330000
	// DefaultScale is the benchmark scale.
	DefaultScale = 0.1
	// DefaultCadence is the metrics capture cadence in VM cycles.
	DefaultCadence = 1 << 16
)

// Framework maps a variation name ("" for none, full, partial, nodup,
// hybrid) and the yieldpoint-optimization switch to the sampling
// framework's options; nil means no framework.
func Framework(variation string, yieldopt bool) (*core.Options, error) {
	var v core.Variation
	switch variation {
	case "":
		if yieldopt {
			return nil, fmt.Errorf("yieldopt requires variation")
		}
		return nil, nil
	case "full":
		v = core.FullDuplication
	case "partial":
		v = core.PartialDuplication
	case "nodup":
		v = core.NoDuplication
	case "hybrid":
		v = core.Hybrid
	default:
		return nil, fmt.Errorf("unknown variation %q (want full, partial, nodup, hybrid)", variation)
	}
	return &core.Options{Variation: v, YieldpointOpt: yieldopt}, nil
}

// NamedTrigger maps a trigger name and its parameters to a trigger spec.
// interval drives counter, perthread and random; period drives timer and
// faulty-timer. A zero jitter defaults to interval/10 for random and to
// period/2 for faulty-timer; both seed 1. A zero interval is passed
// through (the counter family then fires at every check).
func NamedTrigger(name string, interval int64, period uint64, jitter int64) (TriggerSpec, error) {
	if interval < 0 {
		return TriggerSpec{}, fmt.Errorf("interval must not be negative")
	}
	switch name {
	case "counter":
		return CounterTrigger(interval), nil
	case "perthread":
		return TriggerSpec{Kind: "perthread", Interval: interval}, nil
	case "timer":
		return TimerTrigger(period), nil
	case "random":
		if jitter == 0 {
			jitter = interval / 10
		}
		return RandomizedTrigger(interval, jitter, 1), nil
	case "faulty-timer":
		j := uint64(jitter)
		if j == 0 {
			j = period / 2
		}
		return FaultyTimerTrigger(period, j, 0, 1), nil
	case "never":
		return NeverTrigger(), nil
	case "always":
		return AlwaysTrigger(), nil
	}
	return TriggerSpec{}, fmt.Errorf("unknown trigger %q (want counter, perthread, timer, random, never, always, faulty-timer)", name)
}

// VMSpec is the VM side of a run.
type VMSpec struct {
	// Trigger is the sampling trigger; each run constructs a fresh one.
	Trigger TriggerSpec
	// ICache is the i-cache geometry (nil = no i-cache model).
	ICache *vm.ICacheConfig
	// MaxCycles caps the run (0 = the VM's default).
	MaxCycles uint64
	// Observers watch the run, after the oracle when OptsSpec.Verify is
	// set. Every observer with a SetClock(telemetry.Clock) method is
	// given the VM's cycle clock.
	Observers []vm.Observer
}

// A Run is a compiled configuration whose VM is built and not yet
// started. Splitting Prepare from Execute lets a caller time the VM
// execution alone.
type Run struct {
	ctx context.Context
	cr  *compile.Result
	rts []instr.Runtime
	vm  *vm.VM
	tok *vm.Cancel
	orc *oracle.Oracle
}

// Prepare builds the VM that runs cr, the program compiled under o, on
// the VM side vs. The run gets its own instrumentation runtimes and
// never writes to cr, so any number of runs may share one compiled
// program (DESIGN.md §10). A cancellable ctx stops Execute within one
// observation interval of its cancellation.
func Prepare(ctx context.Context, cr *compile.Result, o OptsSpec, vs VMSpec) *Run {
	r := &Run{ctx: ctx, cr: cr}
	var handlers []vm.ProbeHandler
	r.rts, handlers = cr.NewRuntimes()
	cfg := vm.Config{
		Trigger:    vs.Trigger.New(),
		Handlers:   handlers,
		ICache:     vs.ICache,
		MaxCycles:  vs.MaxCycles,
		IterBudget: o.IterBudget,
	}
	if ctx.Done() != nil {
		r.tok = vm.NewCancel()
		cfg.Cancel = r.tok
	}
	observers := vs.Observers
	if o.Verify {
		r.orc = oracle.New()
		observers = append([]vm.Observer{r.orc}, observers...)
	}
	cfg.Observer = vm.CombineObservers(observers...)
	r.vm = vm.New(cr.Prog, cfg)
	for _, ob := range vs.Observers {
		if c, ok := ob.(interface{ SetClock(telemetry.Clock) }); ok {
			c.SetClock(r.vm)
		}
	}
	return r
}

// Execute runs the VM and assembles the measured result. A cancelled
// run's error wraps both the context's error and the vm.CancelError
// (so errors.Is(err, context.Canceled) and vm.IsCancelled(err) both
// hold); other failures read "run: …" and "invariant oracle: …".
func (r *Run) Execute() (*CellResult, error) {
	if r.tok != nil {
		stop := context.AfterFunc(r.ctx, r.tok.Fire)
		defer stop()
	}
	out, err := r.vm.Run()
	if err != nil {
		if vm.IsCancelled(err) && r.ctx.Err() != nil {
			return nil, fmt.Errorf("%w (%w)", r.ctx.Err(), err)
		}
		return nil, fmt.Errorf("run: %w", err)
	}
	res := &CellResult{
		Stats:              out.Stats,
		CodeSize:           r.cr.CodeSize,
		CheckingCodeSize:   r.cr.CheckingCodeSize,
		DuplicatedCodeSize: r.cr.DuplicatedCodeSize,
		Work:               r.cr.Work,
		Return:             out.Return,
		Output:             out.Output,
	}
	if r.orc != nil {
		if err := r.orc.Finish(out.Stats); err != nil {
			return nil, fmt.Errorf("invariant oracle: %w", err)
		}
		res.Aux = map[string]int64{
			"oracle-events":      int64(r.orc.Events()),
			"oracle-expected-p1": int64(r.orc.ExpectedPropertyViolations()),
		}
	}
	res.Profiles = r.profiles()
	return res, nil
}

// profiles returns the run's live instrumentation profiles, in owner
// order.
func (r *Run) profiles() []*profile.Profile {
	var ps []*profile.Profile
	for _, rt := range r.rts {
		ps = append(ps, rt.Profile())
	}
	return ps
}
