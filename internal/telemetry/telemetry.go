// Package telemetry is the observability layer: it turns the vm.Observer
// event stream into artifacts a human (or a later analysis pass) can
// consume without re-running the program.
//
// Three consumers are provided, all implementing vm.Observer so they can
// be installed alone or fanned out together through vm.MultiObserver:
//
//   - Trace: a lock-free, fixed-size ring-buffered flight recorder with
//     one ring per VM thread. It keeps the most recent events (oldest
//     entries are overwritten; overwrites are counted as drops) and
//     exports Chrome trace-event JSON loadable in chrome://tracing or
//     https://ui.perfetto.dev.
//   - Meter: updates a metrics Registry (counters, gauges, histograms)
//     from the event stream and snapshots it into a Series at a
//     configurable cycle cadence, for CSV/JSON time-series export.
//   - Convergence: periodically clones the live sampled profiles so the
//     experiment layer can compute profile.Overlap against the perfect
//     profile as a function of executed cycles (the accuracy-convergence
//     curves).
//
// Each consumer declares the events it reads (vm.EventFilter), so none
// of them takes the VM off its fused streams: Trace reads every hook
// class but transfers, the Meter reads probes, and Convergence reads
// nothing of its own. The Meter and Convergence wake on one cycle
// cadence: a capture or snapshot lands on the first enter, exit, check,
// probe or yield at or past each boundary, on either dispatcher.
//
// All timestamps are in the VM's simulated-cycle domain, read through
// the Clock interface (vm.VM implements it via VM.Now). Cycle timestamps
// are deterministic: the same program and trigger produce the same
// telemetry byte-for-byte, regardless of wall-clock load or -j
// parallelism. See DESIGN.md §9.
package telemetry

// Clock supplies the current timestamp in simulated VM cycles. *vm.VM
// implements Clock: VM.Now is exact at every observer hook. The VM is
// constructed with the observer already installed, so consumers accept
// the clock after construction (SetClock) and read it lazily; a nil
// clock yields timestamp 0.
type Clock interface {
	Now() uint64
}

// cadence is the cycle-boundary schedule the Meter's captures and
// Convergence's snapshots share: next is the first multiple of interval
// not yet acted on, and the consumer's vm.EventFilter wake.
type cadence struct{ interval, next uint64 }

// newCadence starts a schedule at its first boundary; interval 0 means
// 1<<16 cycles.
func newCadence(interval uint64) cadence {
	if interval == 0 {
		interval = 1 << 16
	}
	return cadence{interval: interval, next: interval}
}

// advance moves next to the first boundary after now, skipping any the
// run passed without an event.
func (c *cadence) advance(now uint64) { c.next = (now/c.interval + 1) * c.interval }
