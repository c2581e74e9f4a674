package service

import (
	"context"
	"time"

	"instrsample/internal/asm"
	"instrsample/internal/experiment"
	"instrsample/internal/ir"
	"instrsample/internal/obs"
	"instrsample/internal/telemetry"
	"instrsample/internal/vm"
)

// jobTraceRingCap bounds the per-job VM flight-recorder ring (events
// per thread, power of two). Full mode records only fired checks and
// probes, so this holds the last few hundred samples of a run — enough
// for a merged Chrome trace, small enough that per-job allocation and
// retention stay off the service path's GC budget.
const jobTraceRingCap = 256

// jobProgram builds the job's program: assembled source, a scenario
// family member, or a fresh suite benchmark at the requested scale.
func jobProgram(spec JobSpec) (*ir.Program, error) {
	if spec.Source != "" {
		return asm.Assemble("job.vasm", spec.Source)
	}
	if spec.Scenario != nil {
		return spec.Scenario.Program(spec.ScenarioIndex)
	}
	build, err := experiment.BenchBuilder(spec.Bench)
	if err != nil {
		return nil, err
	}
	return build(spec.Scale), nil
}

// meterPublisher forwards every observer event to the telemetry meter and
// then publishes any freshly captured Series rows to the job's event log.
// It runs on the VM goroutine, so reading the meter's series here is
// race-free; subscribers only ever see rows through the job's event log.
// It declares the meter's event mask and capture deadline, so a metered
// run stays on fused streams and the publisher runs only where the meter
// does.
//
// When vtr is non-nil (obs ModeFull) it also flight-records the samples
// themselves — fired checks and probes, the events the paper's
// discipline says a sampled run exists to produce, whose rate the
// operator already bounds via the trigger interval. Everything
// per-call or per-block (enter/exit, polled-but-unfired checks,
// yields, transfers — 2x-costly to record in aggregate, BENCH_PR4/PR8)
// is deliberately NOT recorded, and the recording rides inside this
// observer rather than as a second one so the VM keeps
// CombineObservers' single-observer dispatch path. To see every fired
// check and probe, the recording adds EvCheck|EvProbe to the mask; the
// run stays fused. Both together keep -obs=full's marginal cost
// proportional to the sample rate, not the block rate (BENCH_PR9).
type meterPublisher struct {
	m    *telemetry.Meter
	j    *Job
	vtr  *telemetry.Trace
	sent int
}

func (p *meterPublisher) publish() {
	s := p.m.Series()
	if len(s.Rows) > p.sent {
		p.j.events.publish(s.Columns, s.Rows[p.sent:])
		p.sent = len(s.Rows)
	}
}

// Events implements vm.EventFilter.
func (p *meterPublisher) Events() vm.EventMask {
	ev := p.m.Events()
	if p.vtr != nil {
		ev |= vm.EvCheck | vm.EvProbe
	}
	return ev
}

// NextWake implements vm.EventFilter.
func (p *meterPublisher) NextWake() uint64 { return p.m.NextWake() }

// SetClock gives the meter, and the ModeFull recorder when present, the
// VM's cycle clock.
func (p *meterPublisher) SetClock(c telemetry.Clock) {
	p.m.SetClock(c)
	if p.vtr != nil {
		p.vtr.SetClock(c)
	}
}

func (p *meterPublisher) OnEnter(t *vm.Thread, f *vm.Frame) { p.m.OnEnter(t, f); p.publish() }
func (p *meterPublisher) OnExit(t *vm.Thread, f *vm.Frame)  { p.m.OnExit(t, f); p.publish() }

// OnTransfer forwards without publishing: the meter never captures on a
// transfer.
func (p *meterPublisher) OnTransfer(t *vm.Thread, f *vm.Frame, in *ir.Instr, target int) {
	p.m.OnTransfer(t, f, in, target)
}
func (p *meterPublisher) OnCheck(t *vm.Thread, f *vm.Frame, in *ir.Instr, fired bool) {
	p.m.OnCheck(t, f, in, fired)
	if fired && p.vtr != nil {
		p.vtr.OnCheck(t, f, in, fired)
	}
	p.publish()
}
func (p *meterPublisher) OnProbe(t *vm.Thread, f *vm.Frame, pr *ir.Probe) {
	p.m.OnProbe(t, f, pr)
	if p.vtr != nil {
		p.vtr.OnProbe(t, f, pr)
	}
	p.publish()
}
func (p *meterPublisher) OnYield(t *vm.Thread, f *vm.Frame) { p.m.OnYield(t, f); p.publish() }

// jobCell builds the engine cell for a spec, compiling through eng's
// program store. events, when non-nil, is the job whose SSE stream
// receives the run's metrics series; it is deliberately NOT part of the
// cell key — events change what a client observes mid-run, never the
// result, so memo/cache sharing stays legal.
// (A job served from the memo or cache therefore streams no metrics
// rows, only the completion event; see DESIGN.md §10.)
//
// full asks runSpec to attach a telemetry.Trace to the executed VM (the
// obs ModeFull behaviour); the job's span chain rides along on events.
// The engine's lifecycle hook threads memo-flight (with the owning
// job's ID as cause) and cache-probe into that chain; the engine's
// "run" stage is ignored because runSpec opens compile itself at the
// same instant. Like events, neither is part of the cell key.
func jobCell(eng *experiment.Engine, spec JobSpec, events *Job, full bool) experiment.Cell {
	c := experiment.Cell{Key: spec.cellKey(), Run: func(ctx context.Context) (*experiment.CellResult, error) {
		return runSpec(ctx, eng, spec, events, full)
	}}
	if events != nil && events.trace != nil {
		tr := events.trace
		c.Stage = func(stage, cause string) {
			switch stage {
			case "memo-flight":
				tr.Begin(obs.StageMemoFlight, cause)
			case "cache-probe":
				tr.Begin(obs.StageCacheProbe, "")
			}
		}
	}
	return c
}

// runSpec executes one job configuration through experiment.Prepare and
// Execute, the run path isamp's run and bench commands also take, so a
// job and the equivalent command line run the same code. runSpec adds
// what only a job has: program selection, the SSE meter publisher, the
// ModeFull recorder and the ledger stages — compile spans the lookup in
// eng's program store (program selection and compilation
// on a miss; nil eng always compiles), vm-run opens right before the VM
// starts, and export covers the final metrics publication.
func runSpec(ctx context.Context, eng *experiment.Engine, spec JobSpec, events *Job, full bool) (*experiment.CellResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var tr *obs.JobTrace
	if events != nil {
		tr = events.trace
	}
	tr.Begin(obs.StageCompile, "")
	o, t, err := spec.specs()
	if err != nil {
		return nil, err
	}
	cr, err := eng.Compiled(spec.programID(), o, func() (*ir.Program, error) { return jobProgram(spec) })
	if err != nil {
		return nil, err
	}
	vs := experiment.VMSpec{Trigger: t, MaxCycles: spec.MaxCycles}
	if spec.ICache {
		vs.ICache = vm.DefaultICache()
	}
	var pub *meterPublisher
	if events != nil {
		meter := telemetry.NewMeter(telemetry.NewRegistry(), t.Name(), spec.EventsInterval, nil)
		pub = &meterPublisher{m: meter, j: events}
		// ModeFull: flight-record the run's sampling-relevant VM events so
		// the job's merged Chrome trace spans HTTP-to-opcode. The recording
		// hangs off the publisher, so the hot path stays one observer whose
		// event mask keeps fused streams on (DESIGN.md §14), filtered to
		// fired samples. A small per-job ring: the recorder keeps the end
		// of the run (flight-recorder discipline), and a 16K default ring
		// would cost ~700KB of allocation per job — pure GC pressure at
		// service rates.
		if full && tr != nil {
			pub.vtr = telemetry.NewTrace(jobTraceRingCap)
		}
		vs.Observers = []vm.Observer{pub}
	}
	run := experiment.Prepare(ctx, cr, o, vs)
	tr.Begin(obs.StageVMRun, "")
	var runStart time.Time
	if events != nil {
		runStart = events.now()
	}
	res, err := run.Execute()
	if err != nil {
		return nil, err
	}
	if pub != nil && pub.vtr != nil {
		// The wall window [runStart, runEnd] aligns the run's cycle clock
		// to wall time in the merged export.
		tr.AttachVM(pub.vtr, runStart, events.now(), res.Stats.Cycles)
	}
	tr.Begin(obs.StageExport, "")
	if pub != nil {
		pub.m.Finish()
		pub.publish()
	}
	// A job result never shows labels (ProfileDump has none), and a
	// labeler closes over the compiled program: dropping it keeps a
	// memoized result from pinning the program's IR.
	for _, p := range res.Profiles {
		p.Labeler = nil
	}
	return res, nil
}
