package telemetry

import (
	"instrsample/internal/ir"
	"instrsample/internal/vm"
)

// Metric names written by the Meter. Exported so CLIs, tests and docs
// spell them once.
const (
	MetricCycles       = "vm.cycles"              // gauge: cycles at last capture
	MetricEntries      = "vm.method.entries"      // counter: frame pushes
	MetricExits        = "vm.method.exits"        // counter: frame pops
	MetricChecks       = "vm.checks"              // counter: executed sample checks
	MetricSamples      = "vm.samples"             // counter, suffixed ".<trigger>": fired checks
	MetricProbes       = "vm.probes"              // counter: executed probes
	MetricYields       = "vm.yields"              // counter: executed yieldpoints
	MetricDupEntries   = "vm.dup.entries"         // counter: checking→duplicated transfers
	MetricDupCycles    = "vm.dup.cycles"          // counter: cycles spent in duplicated code
	MetricDupResidency = "vm.dup.residency_ppm"   // gauge: dup cycles per million cycles
	MetricOverhead     = "vm.overhead.cycles"     // counter: modelled instrumentation cycles
	MetricCheckRate    = "vm.checks_per_interval" // histogram: checks between captures

	// Fusion coverage, recorded post-run via RecordFusion: the fused
	// tier retires instructions a block at a time with no per-instruction
	// event, so coverage is read from vm.VM.FusionStats after the run.
	MetricFusionInstrs     = "vm.fusion.instrs"       // counter: instructions retired on the fused tier
	MetricFusionFused      = "vm.fusion.fused"        // counter: instructions retired inside superinstructions
	MetricFusionDispatches = "vm.fusion.dispatches"   // counter: fused-stream tokens dispatched
	MetricFusionFraction   = "vm.fusion.fraction_ppm" // gauge: fused instrs per million executed instrs
	MetricFusionByKind     = "vm.fusion.kind"         // counter, suffixed ".<kind>": superinstruction executions
)

// Meter feeds a metrics Registry from the vm.Observer event stream and
// captures a Series row every Interval cycles.
//
// The meter samples its own input, the way the paper samples
// instrumentation: it declares only EvProbe and a wake deadline at its
// next capture boundary (vm.EventFilter), so a metered run
// keeps the VM's fused streams and the meter runs only at probes,
// sampling-episode boundaries and capture deadlines. At each capture it
// reads entries, exits, checks, samples and yields from the VM's own
// counters — its clock must be the observed *vm.VM — so the Series is
// byte-identical to the one a meter fed every event would capture.
//
// Derived metrics:
//
//   - vm.dup.cycles / vm.dup.residency_ppm measure time spent in
//     duplicated code: a per-thread depth counter opens an interval on a
//     checking→duplicated transfer and closes it when the thread
//     transfers (or returns) back out. Cycles spent in methods *called
//     from* duplicated code count as duplicated-code time — residency
//     is attributed to the sampling episode, not the block kind of the
//     innermost frame.
//   - vm.overhead.cycles is the modelled cost of the instrumentation
//     the observer can see — Check cycles per check, Yield cycles per
//     yieldpoint, each probe's own Cost — using the run's CostModel.
//     It is a first-order account (it excludes i-cache effects and
//     duplicated-vs-checking code-path differences).
//   - vm.checks_per_interval observes, at each capture, how many checks
//     executed since the previous capture.
//
// Like every telemetry consumer, the Meter is driven by simulated
// cycles, so its output is deterministic for a given program + trigger.
type Meter struct {
	reg     *Registry
	clock   Clock
	machine *vm.VM
	series  *Series

	interval uint64
	next     uint64

	cost *vm.CostModel

	entries    *Counter
	exits      *Counter
	checks     *Counter
	samples    *Counter
	probes     *Counter
	yields     *Counter
	dupEntries *Counter
	dupCycles  *Counter
	overhead   *Counter
	cycles     *Gauge
	residency  *Gauge
	checkRate  *Histogram

	// probeCost sums the executed probes' modelled cost; the check and
	// yield parts of vm.overhead.cycles come from the VM's counters.
	probeCost       uint64
	checksAtCapture uint64
	threads         []meterThread
}

// pending counts events a hook is delivering that the VM adds to its
// counters only after the hook returns: the exit inside OnExit (its
// frame is still live) and a guard's fire inside OnCheck
// (Stats.CheckFires counts an OpCheckedProbe fire after the hook).
type pending struct{ exits, fires uint64 }

type meterThread struct {
	dupDepth int
	dupStart uint64
}

// NewMeter returns a Meter registering its metrics in reg. triggerName
// labels the samples counter (vm.samples.<triggerName>); interval is the
// capture cadence in cycles (0 means 1<<16). cost may be nil for the
// default model.
func NewMeter(reg *Registry, triggerName string, interval uint64, cost *vm.CostModel) *Meter {
	if interval == 0 {
		interval = 1 << 16
	}
	if cost == nil {
		cost = vm.DefaultCostModel()
	}
	m := &Meter{
		reg:      reg,
		series:   NewSeries(reg),
		interval: interval,
		next:     interval,
		cost:     cost,

		entries:    reg.Counter(MetricEntries),
		exits:      reg.Counter(MetricExits),
		checks:     reg.Counter(MetricChecks),
		samples:    reg.Counter(MetricSamples + "." + triggerName),
		probes:     reg.Counter(MetricProbes),
		yields:     reg.Counter(MetricYields),
		dupEntries: reg.Counter(MetricDupEntries),
		dupCycles:  reg.Counter(MetricDupCycles),
		overhead:   reg.Counter(MetricOverhead),
		cycles:     reg.Gauge(MetricCycles),
		residency:  reg.Gauge(MetricDupResidency),
		checkRate:  reg.Histogram(MetricCheckRate, ExpBuckets(1, 16)),
	}
	return m
}

// SetClock installs the timestamp source; call it right after vm.New,
// with the VM itself. The VM is also where captures read the event
// counters from; with any other clock they stay zero.
func (m *Meter) SetClock(c Clock) {
	m.clock = c
	m.machine, _ = c.(*vm.VM)
}

// Events implements vm.EventFilter: the meter counts probes itself and
// reads every other count from the VM at capture time.
func (m *Meter) Events() vm.EventMask { return vm.EvProbe }

// NextWake implements vm.EventFilter: the next capture boundary.
func (m *Meter) NextWake() uint64 { return m.next }

// Series returns the captured time series.
func (m *Meter) Series() *Series { return m.series }

// Registry returns the registry the meter writes to.
func (m *Meter) Registry() *Registry { return m.reg }

func (m *Meter) now() uint64 {
	if m.clock == nil {
		return 0
	}
	return m.clock.Now()
}

func (m *Meter) threadState(tid int) *meterThread {
	for tid >= len(m.threads) {
		m.threads = append(m.threads, meterThread{})
	}
	return &m.threads[tid]
}

// tick captures a series row when the capture boundary has passed.
func (m *Meter) tick(now uint64, p pending) {
	if now < m.next {
		return
	}
	m.capture(now, p)
	m.next = (now/m.interval + 1) * m.interval
}

// capture brings the event counters up to the VM's, refreshes the
// derived gauges and snapshots the registry.
func (m *Meter) capture(now uint64, p pending) {
	m.cycles.Set(int64(now))
	if m.machine != nil {
		s := m.machine.Stats()
		advance(m.entries, s.MethodEntries)
		advance(m.exits, s.MethodEntries-uint64(m.machine.LiveFrames())+p.exits)
		advance(m.checks, s.Checks)
		advance(m.samples, s.CheckFires+p.fires)
		advance(m.yields, s.Yields)
		advance(m.overhead, m.probeCost+s.Checks*uint64(m.cost.Check)+s.Yields*uint64(m.cost.Yield))
	}
	checks := m.checks.Value()
	m.checkRate.Observe(checks - m.checksAtCapture)
	m.checksAtCapture = checks

	// Fold any open duplicated-code intervals up to now, so residency
	// does not lag for threads parked inside duplicated code.
	for i := range m.threads {
		t := &m.threads[i]
		if t.dupDepth > 0 && now > t.dupStart {
			m.dupCycles.Add(now - t.dupStart)
			t.dupStart = now
		}
	}
	if now > 0 {
		m.residency.Set(int64(m.dupCycles.Value() * 1_000_000 / now))
	}
	m.series.Capture(now)
}

// advance raises c to total, a monotone VM-side count.
func advance(c *Counter, total uint64) { c.Add(total - c.Value()) }

// Finish folds open state and captures a final row at the current
// cycle. Call it once after the run completes.
func (m *Meter) Finish() { m.capture(m.now(), pending{}) }

// RecordFusion publishes a run's superinstruction coverage
// (vm.VM.FusionStats) into the registry. The fused tier emits no
// per-instruction events, so coverage arrives here after the fact: call
// it once per run, with the run's Stats().Instrs as totalInstrs. A run
// the meter alone observes stays fused; one that also carries an
// observer without an event mask (the trace recorder, the oracle) does
// not, and calling it with all-zero stats (fusion off or degraded)
// records nothing.
func (m *Meter) RecordFusion(fs vm.FusionStats, totalInstrs uint64) {
	if fs.Instrs == 0 {
		return
	}
	m.reg.Counter(MetricFusionInstrs).Add(fs.Instrs)
	m.reg.Counter(MetricFusionFused).Add(fs.Fused)
	m.reg.Counter(MetricFusionDispatches).Add(fs.Dispatches)
	if totalInstrs > 0 {
		m.reg.Gauge(MetricFusionFraction).Set(int64(fs.Fused * 1_000_000 / totalInstrs))
	}
	for kind, n := range fs.ByKind {
		m.reg.Counter(MetricFusionByKind + "." + kind).Add(n)
	}
}

func (m *Meter) dupEnter(tid int, now uint64) {
	t := m.threadState(tid)
	if t.dupDepth == 0 {
		t.dupStart = now
	}
	t.dupDepth++
	m.dupEntries.Inc()
}

func (m *Meter) dupExit(tid int, now uint64) {
	t := m.threadState(tid)
	if t.dupDepth == 0 {
		return
	}
	t.dupDepth--
	if t.dupDepth == 0 && now > t.dupStart {
		m.dupCycles.Add(now - t.dupStart)
	}
}

// OnEnter implements vm.Observer.
func (m *Meter) OnEnter(t *vm.Thread, f *vm.Frame) {
	m.tick(m.now(), pending{})
}

// OnExit implements vm.Observer. The VM always delivers an exit from
// duplicated code, which closes a residency interval.
func (m *Meter) OnExit(t *vm.Thread, f *vm.Frame) {
	now := m.now()
	if f.Block != nil && f.Block.Kind == ir.KindDuplicated {
		m.dupExit(t.ID, now)
	}
	m.tick(now, pending{exits: 1})
}

// OnTransfer implements vm.Observer. The VM always delivers a transfer
// between checking and duplicated code, the only ones the meter uses.
func (m *Meter) OnTransfer(t *vm.Thread, f *vm.Frame, in *ir.Instr, target int) {
	to := in.Targets[target]
	fromDup := f.Block != nil && f.Block.Kind == ir.KindDuplicated
	toDup := to.Kind == ir.KindDuplicated
	switch {
	case !fromDup && toDup:
		m.dupEnter(t.ID, m.now())
	case fromDup && !toDup:
		m.dupExit(t.ID, m.now())
	}
}

// OnCheck implements vm.Observer.
func (m *Meter) OnCheck(t *vm.Thread, f *vm.Frame, in *ir.Instr, fired bool) {
	var p pending
	if fired && in.Op == ir.OpCheckedProbe {
		p.fires = 1
	}
	m.tick(m.now(), p)
}

// OnProbe implements vm.Observer.
func (m *Meter) OnProbe(t *vm.Thread, f *vm.Frame, p *ir.Probe) {
	m.probes.Inc()
	m.probeCost += uint64(p.Cost)
	m.tick(m.now(), pending{})
}

// OnYield implements vm.Observer.
func (m *Meter) OnYield(t *vm.Thread, f *vm.Frame) {
	m.tick(m.now(), pending{})
}
