package vm

import (
	"math"

	"instrsample/internal/ir"
)

// Observer receives execution events from the interpreter. It exists
// for runtime observation — package oracle implements it to check the
// sampling framework's dynamic invariants, package telemetry to record
// execution traces and metrics — and is deliberately not an
// instruction-level tracing interface: events fire at control-flow
// granularity, never per straight-line instruction.
//
// Cost contract (see DESIGN.md §8):
//
//   - A nil Config.Observer must be free. The reference dispatcher
//     tests the observer exactly once per block transfer, check, probe,
//     yieldpoint or frame push/pop — all of which are block-terminator
//     or cold-path events — and never per straight-line instruction.
//     The fast path's fused streams (fuse.go) carry the one test per
//     check, probe and frame push/pop, and nothing else: no test at a
//     yieldpoint or a transfer inside a chain. Adding a hook site that
//     tests the observer per instruction is a contract violation.
//   - An observer that declares nothing (no EventFilter) gets every
//     event: the fast path keeps its fused streams with every chain
//     edge cut, so that every intra-frame transfer is delivered. Such
//     runs pay for the hooks, but their Results are bit-identical to
//     unobserved runs under both dispatchers.
//   - An observer may narrow its event stream (EventFilter): the
//     fast path then delivers only what it asked for, plus the sampling
//     episode boundaries, cutting only those chain edges unless the mask
//     has EvTransfer. The reference dispatcher ignores the declaration
//     and delivers every event, which makes it the differential check.
//
// Hooks run synchronously on the VM's goroutine. They must not mutate
// VM state and must not retain *Frame or Frame.Regs/Scratch past the
// call: the fast path keeps popped frames on the thread's stack and
// reuses each for the next call at its depth (DESIGN.md §7), so a
// retained pointer is overwritten by a later call. A hook walking
// Thread.Frames reads it up to its length only. Nor may a hook read a
// register the program has not written: a reused frame zeroes only the
// registers its method can read before writing them. On the fast path
// Frame.PC may be stale at hook time (the dispatcher tracks it lazily);
// observers must not read it. Frame.Block is current at every hook.
//
// Timestamps: at every hook the VM's cycle counter is current — the fast
// path flushes its lazily tracked counter before invoking any hook — so
// an observer may call VM.Now to timestamp events in the simulated cycle
// domain (package telemetry relies on this).
//
// Both dispatchers (fuse.go, ref.go) emit the same event sequence for
// the same program and trigger; the oracle's differential tests rely on
// this when comparing fast against reference runs. For an observer with
// a narrow EventFilter the fast path emits a subsequence of it, each
// delivered event at the same timestamp. To install more than one
// observer on a run, fan out through a MultiObserver (CombineObservers).
type Observer interface {
	// OnEnter fires after a frame is pushed: thread roots (including
	// main), calls, and spawns — exactly the events Stats.MethodEntries
	// counts. f is the new frame, positioned at its method's entry block.
	OnEnter(t *Thread, f *Frame)
	// OnExit fires when OpReturn pops a frame, before the frame is
	// reused. f is the popped frame.
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

// EventMask is a set of Observer hook classes, one bit per hook.
type EventMask uint8

// Hook classes: EvEnter is OnEnter, EvExit OnExit, and so on.
const (
	EvEnter EventMask = 1 << iota
	EvExit
	EvTransfer
	EvCheck
	EvProbe
	EvYield

	// EvAll is every hook class: what an observer without an
	// EventFilter gets.
	EvAll = EvEnter | EvExit | EvTransfer | EvCheck | EvProbe | EvYield
)

// EventFilter is implemented by an observer that needs only some hook
// classes. Events is the mask, read once at New. NextWake is a cycle
// deadline, re-read after every delivered hook: the masked-out classes
// other than EvTransfer are delivered at the first such event at or
// after it (NoWake: never). A fused yieldpoint reports the exact cycle
// it would on the reference dispatcher, so a wake lands on the same
// event either way. Outside the mask and the deadline, the fast path
// delivers only the sampling-episode boundaries: a transfer between
// checking and duplicated code, and an OnExit from a duplicated block.
type EventFilter interface {
	Events() EventMask
	NextWake() uint64
}

// NoWake is the deadline of an EventFilter that wants nothing outside
// its mask.
const NoWake = math.MaxUint64

// observerEvents returns the hook classes o declares (EvAll when it
// declares none) and its filter, which is nil when every event is
// delivered anyway.
func observerEvents(o Observer) (EventMask, EventFilter) {
	f, ok := o.(EventFilter)
	if !ok || f.Events() == EvAll {
		return EvAll, nil
	}
	return f.Events(), f
}

// episodeEdge reports whether a transfer from a to b enters or leaves
// duplicated code: the sampling-episode boundary every observer sees.
func episodeEdge(a, b *ir.Block) bool {
	return (a.Kind == ir.KindDuplicated) != (b.Kind == ir.KindDuplicated)
}

// MultiObserver fans every event out to each element in order. The VM
// tests Config.Observer for nil exactly once per event either way, so a
// MultiObserver costs one indirect call per element and nothing else;
// event order within each element matches what the element would see
// installed alone, except that an element with a narrow EventFilter
// also sees the events its siblings asked for.
type MultiObserver []Observer

// Events implements EventFilter: the union of the elements' masks.
func (m MultiObserver) Events() EventMask {
	var mask EventMask
	for _, o := range m {
		ev, _ := observerEvents(o)
		mask |= ev
	}
	return mask
}

// NextWake implements EventFilter: the earliest of the elements'
// deadlines.
func (m MultiObserver) NextWake() uint64 {
	wake := uint64(NoWake)
	for _, o := range m {
		if _, f := observerEvents(o); f != nil {
			wake = min(wake, f.NextWake())
		}
	}
	return wake
}

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

// Event delivery. The hook sites test v.obs for nil themselves and call
// these only with an observer installed; each flushes the cycle counter
// (now) for the hook and refreshes the wake deadline afterwards. The
// fused streams deliver yieldpoints (wakeYield) and cut chain edges
// (cutEdge) themselves, and the reference dispatcher calls the hooks
// directly: it delivers every event.

// due reports whether an event of class ev at cycle now goes to the
// observer.
func (v *VM) due(ev EventMask, now uint64) bool {
	return v.evMask&ev != 0 || now >= v.wake
}

// rewake re-reads the observer's deadline after a delivered hook.
func (v *VM) rewake() {
	if v.filter != nil {
		v.wake = v.filter.NextWake()
	}
}

func (v *VM) observeEnter(t *Thread, f *Frame) {
	if v.due(EvEnter, v.cycles) {
		v.obs.OnEnter(t, f)
		v.rewake()
	}
}

func (v *VM) observeExit(t *Thread, f *Frame, now uint64) {
	if v.due(EvExit, now) || f.Block.Kind == ir.KindDuplicated {
		v.cycles = now
		v.obs.OnExit(t, f)
		v.rewake()
	}
}

func (v *VM) observeCheck(t *Thread, f *Frame, in *ir.Instr, fired bool, now uint64) {
	if v.due(EvCheck, now) {
		v.cycles = now
		v.obs.OnCheck(t, f, in, fired)
		v.rewake()
	}
}

func (v *VM) observeProbe(t *Thread, f *Frame, p *ir.Probe) {
	if v.due(EvProbe, v.cycles) {
		v.obs.OnProbe(t, f, p)
		v.rewake()
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
