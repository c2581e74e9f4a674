package vm

import (
	"fmt"

	"instrsample/internal/ir"
	"instrsample/internal/trigger"
)

// ProbeEvent is the information handed to an instrumentation runtime when
// one of its probes executes.
type ProbeEvent struct {
	// Probe is the executed probe.
	Probe *ir.Probe
	// Method is the method containing the probe.
	Method *ir.Method
	// CallerMethod and CallSite identify the call that created the
	// current frame (nil/-1 in a thread root frame). Used by call-edge
	// instrumentation.
	CallerMethod *ir.Method
	CallSite     int
	// ThreadID is the executing thread.
	ThreadID int
	// Thread is the executing thread. Handlers may walk Thread.Frames to
	// observe the full call stack — the mechanism behind stack-sampling
	// instrumentations like the sampled calling-context tree (the §2
	// "special treatment" the paper cites from Arnold–Sweeney [8]).
	Thread *Thread
	// Value is the observed value (register content for ProbeValue, path
	// number for ProbePathRecord, 0 otherwise).
	Value int64
}

// ProbeHandler receives probe events for one instrumentation. Handlers
// are registered in Config.Handlers; a probe with Owner == i dispatches to
// Handlers[i].
//
// The event belongs to the VM, which refills the same one for every
// probe so that executing a probe allocates nothing. A handler must not
// retain ev (or any pointer into it) after HandleProbe returns, the same
// rule that holds for *Frame (DESIGN.md §7): copy the fields it needs.
// A handler walking ev.Thread's frames must not read a register the
// program has not written: a recycled frame may still hold an earlier
// frame's value there.
type ProbeHandler interface {
	HandleProbe(ev *ProbeEvent)
}

// Config configures a VM run.
type Config struct {
	// Trigger is the sample trigger polled by checks; nil means Never.
	Trigger trigger.Trigger
	// Handlers are the instrumentation runtimes, indexed by probe Owner.
	Handlers []ProbeHandler
	// Cost is the cycle cost model; nil means DefaultCostModel.
	Cost *CostModel
	// ICache enables the instruction-cache model (requires the layout
	// pass to have assigned block addresses); nil disables it.
	ICache *ICacheConfig
	// MaxStack bounds call depth (default 2048).
	MaxStack int
	// MaxCycles aborts runaway programs (default 1 << 40).
	MaxCycles uint64
	// Quantum is the number of yieldpoints a thread executes before the
	// scheduler rotates (default 64).
	Quantum int
	// IterBudget is the duplicated-code iteration budget installed when a
	// sample fires, consumed by OpLoopCheck (0 when the counted-backedge
	// extension is unused).
	IterBudget int64
	// Observer, when non-nil, receives execution events (frame pushes and
	// pops, block transfers, checks, probes, yieldpoints) for runtime
	// verification and telemetry; package oracle is the standard
	// implementation. A nil Observer costs nothing (see Observer's cost
	// contract). Every observer keeps the fast path's fused streams: one
	// that declares no EventFilter, or whose mask has EvTransfer, gets
	// every chain edge cut so every transfer is delivered; any other only
	// the sampling-episode edges. Results remain bit-identical to
	// unobserved runs either way.
	Observer Observer
	// Cancel, when non-nil, is an externally armed stop request polled at
	// observation points (yieldpoints and sample checks) by both
	// dispatchers; the run returns a *CancelError at the first
	// observation point after Fire. A nil Cancel costs one pointer test
	// per observation point; an armed, never-fired token perturbs no
	// Result (see Cancel's cost contract and DESIGN.md §10).
	Cancel *Cancel
	// CostScale, when non-nil, returns a per-method cycle-cost multiplier
	// (nil or a return of 0 means 1). It models compilation levels in an
	// adaptive system: baseline-compiled methods run slower than
	// optimized ones, which is what profile-driven recompilation
	// (package adaptive) then fixes.
	CostScale func(*ir.Method) uint32
	// Sched, when non-nil, is invoked with the chosen thread's ID each
	// time the scheduler selects the thread to run next — one call per
	// scheduling turn, immediately before the thread executes. Both
	// dispatchers invoke it at the same points with the same sequence
	// (the differential tests require identical scheduling), which is
	// what lets package scenario record a run's green-thread schedule
	// decisions and differentially check a replay against them. A nil
	// Sched costs one pointer test per scheduling turn, which is a
	// cold-path event like the Observer hooks (never per instruction);
	// the hook must not mutate VM state.
	Sched func(threadID int)
	// Reference selects the retained simple dispatch loop, the only
	// per-instruction interpreter, instead of the fast path's fused
	// streams (fuse.go): per-instruction opCost switch and cycle-budget
	// check, a freshly allocated frame per call, the re-slicing
	// scheduler queue. It is slower and allocates per call but is
	// deliberately boring; the differential tests run every program
	// under both dispatchers and require identical results (see ref.go
	// and DESIGN.md §7). It is the only dispatcher switch: the fast path
	// itself hands the reference a program its streams cannot represent
	// (VM.Run). Fused-stream coverage of a fast-path run is reported by
	// VM.FusionStats, never in Stats.
	Reference bool
}

// Stats aggregates execution counters for one run.
type Stats struct {
	// Cycles is the simulated cycle total — the "execution time" all
	// overhead percentages are computed from.
	Cycles uint64
	// Instrs is the number of IR instructions executed.
	Instrs uint64
	// Checks is the number of executed sample checks (OpCheck plus the
	// guards of OpCheckedProbe).
	Checks uint64
	// CheckFires is the number of checks whose sample condition was true
	// — the paper's "Num Samples" column in Table 4.
	CheckFires uint64
	// LoopChecks counts executed OpLoopCheck terminators.
	LoopChecks uint64
	// Yields counts executed yieldpoints. In baseline code yieldpoints
	// sit exactly on method entries and backedges, so this equals
	// entries+backedges executed — the bound of Property 1.
	Yields uint64
	// MethodEntries counts frame pushes (calls, spawns and thread roots).
	MethodEntries uint64
	// Backedges counts executions of instructions marked as backedge
	// jumps by the yieldpoint-insertion pass.
	Backedges uint64
	// ICacheMisses counts instruction-cache misses (0 when disabled).
	ICacheMisses uint64
	// Probes counts executed (unguarded or fired) instrumentation probes.
	Probes uint64
	// ThreadsSpawned counts spawned threads, excluding main.
	ThreadsSpawned uint64
	// DupEntries counts transfers from checking into duplicated code.
	DupEntries uint64
}

// Result is the outcome of a completed run.
type Result struct {
	// Return is the main method's return value.
	Return int64
	// Output is the sequence of OpPrint values, across all threads in
	// execution order.
	Output []int64
	// Stats are the run's counters.
	Stats Stats
}

// RuntimeError is a trap: null dereference, out-of-bounds access, division
// by zero, stack overflow, deadlock or cycle-budget exhaustion.
type RuntimeError struct {
	Reason string
	Method *ir.Method
	Block  *ir.Block
	PC     int
}

func (e *RuntimeError) Error() string {
	loc := "?"
	if e.Method != nil {
		loc = e.Method.FullName()
		if e.Block != nil {
			loc += ":" + e.Block.Name()
			loc += fmt.Sprintf(":%d", e.PC)
		}
	}
	return fmt.Sprintf("vm: %s at %s", e.Reason, loc)
}

// VM executes a sealed program under a Config.
type VM struct {
	prog   *ir.Program
	cfg    Config
	cost   *CostModel
	trig   trigger.Trigger
	ic     *icache
	obs    Observer
	cancel *Cancel

	// evMask is the hook classes obs declares (EvAll for the reference
	// dispatcher, which delivers everything); wake is its cached
	// deadline, refreshed from filter after every delivered hook (see
	// observer.go). filter is nil when every event is delivered anyway.
	evMask EventMask
	wake   uint64
	filter EventFilter

	// costTab is the opcode-indexed cycle-cost side table flattened from
	// the cost model at New time, so the hot loop never re-runs the
	// opCost switch (see CostModel.table).
	costTab [ir.NumOpcodes]uint32
	// fuse is the GID-indexed scale-1 stream table (see fuse.go), built
	// on the first fast-path Run; it stays nil when the program runs on
	// the reference dispatcher. scaled holds the tables of the other
	// cost scales, built as frames first need them. They are per-VM:
	// the shared ir.Program is never mutated.
	fuse   []*fusedBlock
	scaled []scaledStreams
	// fusedInstrs counts the instructions retired on fused streams
	// (FusionStats.Instrs).
	fusedInstrs uint64
	// entryLive is the Method.ID-indexed frame-clear table (see
	// acquireFrame), built with fuse; nil clears every register.
	entryLive []entryLive

	threads []*Thread
	runq    threadQueue // fast-path scheduler queue
	refq    []*Thread   // reference-mode scheduler queue (ref.go)
	cycles  uint64
	stats   Stats
	output  []int64
	quantum int

	// freeFrames is the frame free list: frames (and their register and
	// scratch slices) are recycled when popped, so steady-state call
	// traffic allocates nothing. Pools are per-VM and a VM runs on a
	// single goroutine, so no locking is needed; see DESIGN.md §7 for the
	// lifetime rules probe handlers must respect.
	freeFrames []*Frame
	// probeEv is the one event execProbe fills and hands to a handler
	// (see ProbeHandler's lifetime rule).
	probeEv ProbeEvent
}

// New prepares a VM for the program. The program must be sealed and
// should be verified.
func New(prog *ir.Program, cfg Config) *VM {
	if cfg.Cost == nil {
		cfg.Cost = DefaultCostModel()
	}
	if cfg.Trigger == nil {
		cfg.Trigger = trigger.Never{}
	}
	if cfg.MaxStack == 0 {
		cfg.MaxStack = 2048
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 40
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 64
	}
	v := &VM{prog: prog, cfg: cfg, cost: cfg.Cost, trig: cfg.Trigger, obs: cfg.Observer, cancel: cfg.Cancel}
	v.wake = NoWake
	if v.obs != nil {
		v.evMask, v.filter = observerEvents(v.obs)
	}
	v.costTab = cfg.Cost.table()
	if cfg.ICache != nil {
		v.ic = newICache(cfg.ICache)
	}
	return v
}

// Run executes the program to completion of all threads and returns the
// result. The trigger is reset before execution. The fast path runs
// the program's fused streams; with Config.Reference set, or when the
// streams cannot represent the program (buildFusion), the reference
// dispatcher runs it instead, and delivers every event to an observer.
func (v *VM) Run() (*Result, error) {
	if !v.prog.Sealed() {
		return nil, fmt.Errorf("vm: program %q is not sealed", v.prog.Name)
	}
	v.trig.Reset()
	v.quantum = v.cfg.Quantum
	if v.fuse == nil && !v.cfg.Reference && v.buildFusion() {
		v.buildEntryLive()
	}
	if v.fuse == nil {
		v.evMask, v.filter = EvAll, nil
		return v.runReference()
	}
	v.rewake()
	main := v.newThread(v.prog.Main)
	v.runq.push(main)

	for v.runq.len() > 0 {
		t := v.runq.front()
		if t.State != StateRunnable {
			v.runq.pop()
			continue
		}
		if v.cfg.Sched != nil {
			v.cfg.Sched(t.ID)
		}
		if err := v.runThread(t); err != nil {
			return nil, err
		}
		// Rotate: move to the back if still runnable.
		v.runq.pop()
		if t.State == StateRunnable {
			v.runq.push(t)
		}
		v.quantum = v.cfg.Quantum
	}
	return v.finish(main)
}

// finish checks that every thread completed and assembles the Result. It
// is shared by the fast and reference schedulers.
func (v *VM) finish(main *Thread) (*Result, error) {
	for _, t := range v.threads {
		if t.State != StateDone {
			return nil, &RuntimeError{Reason: fmt.Sprintf("deadlock: thread %d %s", t.ID, t.State)}
		}
	}
	return &Result{Return: main.Result.I, Output: v.output, Stats: v.finalStats()}, nil
}

// finalStats folds the live cycle counter and i-cache miss count into the
// accumulated counters. It is the single finalization point behind both
// Run's Result and the Stats accessor.
func (v *VM) finalStats() Stats {
	s := v.stats
	s.Cycles = v.cycles
	s.ICacheMisses = 0
	if v.ic != nil {
		s.ICacheMisses = v.ic.misses
	}
	return s
}

// Stats returns the counters accumulated so far.
func (v *VM) Stats() Stats { return v.finalStats() }

// LiveFrames returns the number of frames on all threads' stacks: the
// method entries no return has popped yet, so MethodEntries minus
// LiveFrames is the number of method exits so far. Inside OnExit the
// popped frame still counts as live.
func (v *VM) LiveFrames() int {
	n := 0
	for _, t := range v.threads {
		n += len(t.Frames)
	}
	return n
}

// Now returns the current simulated cycle count. At every observer hook
// the value is exact — both dispatchers flush their lazily tracked
// counter before invoking a hook (see Observer) — which makes the VM
// usable as a telemetry clock: package telemetry timestamps its events
// and metric snapshots with Now, keeping everything in the cycle domain
// rather than host wall time.
func (v *VM) Now() uint64 { return v.cycles }

// newThread creates a runnable thread rooted at m with zeroed argument
// registers; callers copy arguments directly into Frames[0].Regs.
func (v *VM) newThread(m *ir.Method) *Thread {
	t := &Thread{ID: len(v.threads), State: StateRunnable}
	t.handle = &Object{Thread: t}
	f := v.acquireFrame(m, ir.NoReg, nil, -1)
	clear(f.Regs[:min(m.NumParams, len(f.Regs))])
	t.Frames = append(t.Frames, f)
	v.threads = append(v.threads, t)
	v.stats.MethodEntries++
	if v.obs != nil {
		v.observeEnter(t, f)
	}
	return t
}

// acquireFrame returns a frame for m that runs the stream table of m's
// cost scale, reusing the free list when possible. The zero register
// state is part of the IR semantics (an unwritten register reads as 0 /
// null), so a recycled frame zeroes every non-parameter register live
// at m's entry: the only ones the method can read before writing them.
// Callers copy arguments into the parameter registers directly, with no
// intermediate slice; every other register is written before any read,
// so its stale value is never seen (the Observer and ProbeHandler rule:
// read only registers the program has written). A method missing from
// the entryLive table gets every register zeroed. Scratch slots are
// always zeroed. The frame returns to the pool when popped
// (releaseFrame).
func (v *VM) acquireFrame(m *ir.Method, retDst ir.Reg, caller *ir.Method, site int) *Frame {
	var f *Frame
	if n := len(v.freeFrames); n > 0 {
		f = v.freeFrames[n-1]
		v.freeFrames[n-1] = nil
		v.freeFrames = v.freeFrames[:n-1]
	} else {
		f = &Frame{}
	}
	if cap(f.Regs) >= m.NumRegs {
		f.Regs = f.Regs[:m.NumRegs]
		if id := m.ID; id >= 0 && id < len(v.entryLive) && v.entryLive[id].m == m {
			for _, r := range v.entryLive[id].regs {
				f.Regs[r] = Value{}
			}
		} else {
			clear(f.Regs)
		}
	} else {
		f.Regs = make([]Value, m.NumRegs)
	}
	if m.ProbeRegs > 0 {
		if cap(f.Scratch) >= m.ProbeRegs {
			f.Scratch = f.Scratch[:m.ProbeRegs]
			clear(f.Scratch)
		} else {
			f.Scratch = make([]int64, m.ProbeRegs)
		}
	} else {
		f.Scratch = nil
	}
	f.Method = m
	f.Block = m.Entry()
	f.PC = 0
	f.RetDst = retDst
	f.CallerMethod = caller
	f.CallSite = site
	f.IterBudget = 0
	f.fuse = v.fuse
	if v.cfg.CostScale != nil {
		if s := v.cfg.CostScale(m); s > 0 {
			f.fuse = v.streamsAt(s)
		}
	}
	return f
}

// entryLive is one method's row of the frame-clear table: the method
// and its non-parameter registers live at entry.
type entryLive struct {
	m    *ir.Method
	regs []ir.Reg
}

// buildEntryLive computes the Method.ID-indexed frame-clear table once
// per VM from ir liveness. Like gidsTrusted with GIDs, it leaves the
// table empty when a method ID is out of range or two methods share
// one, and a method whose CFG liveness cannot describe (a target
// outside the method) gets no row; acquireFrame then zeroes every
// register.
func (v *VM) buildEntryLive() {
	ms := v.prog.Methods()
	table := make([]entryLive, len(ms))
	for _, m := range ms {
		if m.ID < 0 || m.ID >= len(table) || table[m.ID].m != nil {
			return
		}
		table[m.ID].m = m
	}
	for _, m := range ms {
		if !closedCFG(m) {
			table[m.ID].m = nil
			continue
		}
		lv := m.ComputeLiveness()
		for r := m.NumParams; r < m.NumRegs; r++ {
			if lv.LiveInAt(m.Entry(), ir.Reg(r)) {
				table[m.ID].regs = append(table[m.ID].regs, ir.Reg(r))
			}
		}
	}
	v.entryLive = table
}

// closedCFG reports whether liveness covers every path the VM can take
// through m: every target is a block of m, found at its ID. (Every
// block ends in its only terminator, or the program would not run on
// streams.)
func closedCFG(m *ir.Method) bool {
	for _, b := range m.Blocks {
		for _, s := range b.Succs() {
			if !m.HasBlock(s) {
				return false
			}
		}
	}
	return len(m.Blocks) > 0
}

// releaseFrame recycles a popped frame. The registers are cleared lazily
// on the next acquire, as far as the next method can read them; until
// then, and past it, the pooled slices may pin heap objects the program
// no longer references, which is an accepted trade for a simulator
// whose heap dies with the run.
func (v *VM) releaseFrame(f *Frame) {
	v.freeFrames = append(v.freeFrames, f)
}

func (v *VM) trap(t *Thread, reason string) error {
	f := t.Top()
	e := &RuntimeError{Reason: reason}
	if f != nil {
		e.Method, e.Block, e.PC = f.Method, f.Block, f.PC
	}
	return e
}

func (v *VM) enterBlock(f *Frame, b *ir.Block) {
	f.Block = b
	f.PC = 0
	v.touchCode(b)
}

// touchCode simulates the instruction fetch of a block, charging the miss
// penalty for every line the i-cache model misses on.
func (v *VM) touchCode(b *ir.Block) {
	if v.ic == nil {
		return
	}
	if m := v.ic.touch(b.Addr, b.Size); m > 0 {
		v.cycles += m * uint64(v.cost.ICacheMissPenalty)
	}
}
