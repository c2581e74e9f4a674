package telemetry

import (
	"instrsample/internal/ir"
	"instrsample/internal/profile"
	"instrsample/internal/vm"
)

// ConvergencePoint is one snapshot of the live sampled profiles.
type ConvergencePoint struct {
	// Cycle is when the snapshot was taken.
	Cycle uint64
	// Profiles are deep copies of the instrumentation profiles at that
	// moment, in runtime order.
	Profiles []*profile.Profile
}

// Convergence periodically clones the live sampled profiles while the
// program runs, producing the raw material for accuracy-convergence
// curves: overlap of the sampled profile against the perfect profile as
// a function of executed cycles (§4.4's accuracy metric, extended along
// the time axis).
//
// Snapshots are taken at cycle-interval boundaries, so the series is
// deterministic for a given program and trigger — the same run produces
// the same curve regardless of host load. The recorder declares no hook
// class and a wake at its next boundary (vm.EventFilter), the Meter's
// cadence: a snapshot lands on the first enter, exit, check, probe or
// yield at or past each boundary, on either dispatcher, and the run
// keeps its fused streams. Transfers never snapshot. Cloning costs
// O(profile size), which is why the interval should be a meaningful
// fraction of the run (the experiment layer derives it from a baseline
// run's cycle total).
type Convergence struct {
	clock Clock

	// at is the snapshot schedule.
	at cadence
	// max caps the number of snapshots (guards pathological intervals);
	// once reached, no further snapshots are taken.
	max int
	// source returns the live profiles to clone.
	source func() []*profile.Profile

	points []ConvergencePoint
}

// NewConvergence returns a recorder cloning source() every interval
// cycles (0 means 1<<16), keeping at most max snapshots (0 means 4096).
func NewConvergence(interval uint64, max int, source func() []*profile.Profile) *Convergence {
	if max <= 0 {
		max = 4096
	}
	return &Convergence{at: newCadence(interval), max: max, source: source}
}

// SetClock installs the timestamp source; call it right after vm.New,
// with the VM itself.
func (c *Convergence) SetClock(cl Clock) { c.clock = cl }

// Points returns the snapshots taken so far, in cycle order.
func (c *Convergence) Points() []ConvergencePoint { return c.points }

// Events implements vm.EventFilter: no hook class of its own.
func (c *Convergence) Events() vm.EventMask { return 0 }

// NextWake implements vm.EventFilter: the next snapshot boundary, or
// NoWake once max snapshots are held.
func (c *Convergence) NextWake() uint64 {
	if len(c.points) >= c.max {
		return vm.NoWake
	}
	return c.at.next
}

func (c *Convergence) tick() {
	if c.clock == nil || len(c.points) >= c.max {
		return
	}
	now := c.clock.Now()
	if now < c.at.next {
		return
	}
	live := c.source()
	pt := ConvergencePoint{Cycle: now, Profiles: make([]*profile.Profile, len(live))}
	for i, p := range live {
		pt.Profiles[i] = p.Clone()
	}
	c.points = append(c.points, pt)
	c.at.advance(now)
}

// OnEnter implements vm.Observer.
func (c *Convergence) OnEnter(*vm.Thread, *vm.Frame) { c.tick() }

// OnExit implements vm.Observer.
func (c *Convergence) OnExit(*vm.Thread, *vm.Frame) { c.tick() }

// OnTransfer implements vm.Observer. It never snapshots: the fast path
// delivers only the sampling-episode crossings, so a transfer is not a
// point both dispatchers share.
func (c *Convergence) OnTransfer(*vm.Thread, *vm.Frame, *ir.Instr, int) {}

// OnCheck implements vm.Observer.
func (c *Convergence) OnCheck(*vm.Thread, *vm.Frame, *ir.Instr, bool) { c.tick() }

// OnProbe implements vm.Observer.
func (c *Convergence) OnProbe(*vm.Thread, *vm.Frame, *ir.Probe) { c.tick() }

// OnYield implements vm.Observer.
func (c *Convergence) OnYield(*vm.Thread, *vm.Frame) { c.tick() }
