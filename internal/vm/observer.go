package vm

import "instrsample/internal/ir"

// Observer receives execution events from the interpreter. It exists
// for runtime observation — package oracle implements it to check the
// sampling framework's dynamic invariants, package telemetry to record
// execution traces and metrics — and is deliberately not an
// instruction-level tracing interface: events fire at control-flow
// granularity, never per straight-line instruction.
//
// Cost contract (see DESIGN.md §8):
//
//   - A nil Config.Observer must be free. Both dispatchers test the
//     observer exactly once per block transfer, check, probe, yieldpoint
//     or frame push/pop — all of which are block-terminator or cold-path
//     events — and never inside the per-instruction dispatch. Adding a
//     hook site that tests the observer per instruction is a contract
//     violation.
//   - With an observer installed, the fast path builds no fused streams
//     (fuse.go) and runs every block per instruction, so that every
//     intra-frame transfer is visible; observed runs are therefore
//     slower, but their Results are bit-identical to unobserved runs
//     under both dispatchers.
//
// Hooks run synchronously on the VM's goroutine. They must not mutate
// VM state and must not retain *Frame or Frame.Regs/Scratch past the
// call: the fast path pools frames (DESIGN.md §7), so a retained pointer
// is recycled by a later call. On the fast path Frame.PC may be stale at
// hook time (the dispatcher tracks it lazily); observers must not read
// it.
//
// Timestamps: at every hook the VM's cycle counter is current — the fast
// path flushes its lazily tracked counter before invoking any hook — so
// an observer may call VM.Now to timestamp events in the simulated cycle
// domain (package telemetry relies on this).
//
// Both dispatchers (interp.go, ref.go) emit the same event sequence for
// the same program and trigger; the oracle's differential tests rely on
// this when comparing fast against reference runs. To install more than
// one observer on a run, fan out through a MultiObserver
// (CombineObservers).
type Observer interface {
	// OnEnter fires after a frame is pushed: thread roots (including
	// main), calls, and spawns — exactly the events Stats.MethodEntries
	// counts. f is the new frame, positioned at its method's entry block.
	OnEnter(t *Thread, f *Frame)
	// OnExit fires when OpReturn pops a frame, before the frame is
	// recycled. f is the popped frame.
	OnExit(t *Thread, f *Frame)
	// OnTransfer fires at every intra-frame control transfer: the
	// terminator in (OpJump, OpBranch, OpCheck or OpLoopCheck) in the
	// block f.Block is about to transfer to in.Targets[target]. f.Block
	// is still the source block when the hook runs.
	OnTransfer(t *Thread, f *Frame, in *ir.Instr, target int)
	// OnCheck fires at every executed sample check — an OpCheck
	// terminator or the guard of an OpCheckedProbe — with the poll
	// outcome. For OpCheck, OnTransfer follows immediately with the
	// chosen target; for a fired OpCheckedProbe, OnProbe follows
	// immediately with the guarded probe.
	OnCheck(t *Thread, f *Frame, in *ir.Instr, fired bool)
	// OnProbe fires for every executed probe (unguarded or fired), before
	// the probe's cost is charged and its handler dispatched. f.Block is
	// the block containing the probe.
	OnProbe(t *Thread, f *Frame, p *ir.Probe)
	// OnYield fires at every executed yieldpoint (OpYield), before the
	// scheduler decides whether to rotate — exactly the events
	// Stats.Yields counts. In baseline code yieldpoints sit on method
	// entries and backedges, so this hook stays within the cost
	// contract's block-granularity bound.
	OnYield(t *Thread, f *Frame)
}

// MultiObserver fans every event out to each element in order. The VM
// tests Config.Observer for nil exactly once per event either way, so a
// MultiObserver costs one indirect call per element and nothing else;
// event order within each element matches what the element would see
// installed alone.
type MultiObserver []Observer

// OnEnter implements Observer.
func (m MultiObserver) OnEnter(t *Thread, f *Frame) {
	for _, o := range m {
		o.OnEnter(t, f)
	}
}

// OnExit implements Observer.
func (m MultiObserver) OnExit(t *Thread, f *Frame) {
	for _, o := range m {
		o.OnExit(t, f)
	}
}

// OnTransfer implements Observer.
func (m MultiObserver) OnTransfer(t *Thread, f *Frame, in *ir.Instr, target int) {
	for _, o := range m {
		o.OnTransfer(t, f, in, target)
	}
}

// OnCheck implements Observer.
func (m MultiObserver) OnCheck(t *Thread, f *Frame, in *ir.Instr, fired bool) {
	for _, o := range m {
		o.OnCheck(t, f, in, fired)
	}
}

// OnProbe implements Observer.
func (m MultiObserver) OnProbe(t *Thread, f *Frame, p *ir.Probe) {
	for _, o := range m {
		o.OnProbe(t, f, p)
	}
}

// OnYield implements Observer.
func (m MultiObserver) OnYield(t *Thread, f *Frame) {
	for _, o := range m {
		o.OnYield(t, f)
	}
}

// CombineObservers returns an observer that delivers every event to each
// non-nil argument in order: nil when none remain (keeping the
// nil-observer fast path), the observer itself when exactly one does (no
// fan-out indirection), and a MultiObserver otherwise. It is how the CLI
// composes the invariant oracle with telemetry recorders (-verify
// -trace).
func CombineObservers(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return MultiObserver(live)
}
