package vm_test

// Fusion edge-case tests: the superinstruction tier's correctness
// contract (DESIGN.md §7.6) says a fused run is observationally identical
// to the reference dispatcher even when execution stops *inside* a
// superinstruction — a trap in the first or second sub-op, a
// cancellation or quantum expiry at a fused-in yieldpoint — and that an
// installed observer keeps fusion, with every chain edge cut (no event
// mask) or with exact yield wakes and episode boundaries (a sparse
// mask).
// Each test here pins one of those seams with a hand-built program whose
// fused encoding is known, then requires bit-identical results between
// the fast path and the reference dispatcher.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// pairRun executes prog under the fast path and the reference
// dispatcher, with base applied to both, and returns the VMs, results
// and errors in that order.
func pairRun(t *testing.T, prog func() *ir.Program, base vm.Config) ([2]*vm.VM, [2]*vm.Result, [2]error) {
	t.Helper()
	var ms [2]*vm.VM
	var rs [2]*vm.Result
	var errs [2]error
	for i, reference := range []bool{false, true} {
		cfg := base
		cfg.Reference = reference
		ms[i] = vm.New(prog(), cfg)
		rs[i], errs[i] = ms[i].Run()
	}
	return ms, rs, errs
}

// requireIdenticalStop asserts both runs stopped with the same error,
// which contains want, and left identical Stats.
func requireIdenticalStop(t *testing.T, ms [2]*vm.VM, errs [2]error, want string) {
	t.Helper()
	names := [2]string{"fast", "reference"}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got error %v, want one containing %q", names[i], err, want)
		}
	}
	if errs[0].Error() != errs[1].Error() {
		t.Fatalf("errors differ:\n  fast:      %v\n  reference: %v", errs[0], errs[1])
	}
	if ms[0].Stats() != ms[1].Stats() {
		t.Fatalf("stats diverge:\n  fast:      %+v\n  reference: %+v", ms[0].Stats(), ms[1].Stats())
	}
}

// requireIdenticalResult asserts both runs completed with the same
// Result: return value, output sequence and Stats.
func requireIdenticalResult(t *testing.T, rs [2]*vm.Result, errs [2]error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
	}
	if rs[0].Return != rs[1].Return || !slices.Equal(rs[0].Output, rs[1].Output) || rs[0].Stats != rs[1].Stats {
		t.Fatalf("results diverge:\n  fast:      ret=%d out=%v %+v\n  reference: ret=%d out=%v %+v",
			rs[0].Return, rs[0].Output, rs[0].Stats, rs[1].Return, rs[1].Output, rs[1].Stats)
	}
}

// TestFusedTrapInsidePair traps in each sub-op position of a memory
// superinstruction and requires the original pc, trap message and
// partial counters to be reconstructed exactly.
func TestFusedTrapInsidePair(t *testing.T) {
	cl := &ir.Class{Name: "C", FieldNames: []string{"f"}}
	// getfield on a null register followed by a const: fuses to
	// getfield+const, traps in the FIRST sub-op.
	first := func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = 8
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpGetField, Dst: 1, A: 2, Class: cl})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 3, Imm: 5})
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{done}})
		fb.At(done).Return(3)
		p := &ir.Program{Name: "trap1", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
	// new + putfield (valid) + getfield on null: the (putfield,getfield)
	// pair fuses and the trap fires in the SECOND sub-op, one past the
	// superinstruction's recorded pc.
	second := func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = 8
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpNew, Dst: 1, Class: cl})
		entry.Append(ir.Instr{Op: ir.OpPutField, A: 0, B: 1, Class: cl})
		entry.Append(ir.Instr{Op: ir.OpGetField, Dst: 2, A: 3, Class: cl})
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{done}})
		fb.At(done).Return(2)
		p := &ir.Program{Name: "trap2", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
	cases := []struct {
		name string
		prog func() *ir.Program
		kind string
		want string
	}{
		{"first-sub-op", first, "getfield+const", "getfield on null"},
		{"second-sub-op", second, "putfield+getfield", "getfield on null"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, _, errs := pairRun(t, tc.prog, vm.Config{MaxCycles: 1 << 20})
			requireIdenticalStop(t, ms, errs, tc.want)
			fs := ms[0].FusionStats()
			if fs.ByKind[tc.kind] == 0 {
				t.Fatalf("superinstruction %q never entered; fusion stats: %+v", tc.kind, fs)
			}
		})
	}
}

// latchLoop builds a program whose main is one latch loop (latchMethod).
func latchLoop(iters int64) func() *ir.Program {
	return func() *ir.Program {
		m := latchMethod("main", iters)
		p := &ir.Program{Name: "latch", Funcs: []*ir.Method{m}, Main: m}
		p.Seal()
		return p
	}
}

// latchThreads builds a program whose main spawns a thread running the
// latch loop, runs the loop itself, and joins: two threads rotating at
// the fused yieldpoints.
func latchThreads(iters int64) func() *ir.Program {
	return func() *ir.Program {
		loop := latchMethod("loop", iters)
		mb := ir.NewFunc("main", 0)
		c := mb.At(mb.EntryBlock())
		h := c.Spawn(loop)
		c.Return(c.Bin(ir.OpAdd, c.Call(loop), c.Join(h)))
		p := &ir.Program{Name: "latch2", Funcs: []*ir.Method{loop, mb.M}, Main: mb.M}
		p.Seal()
		return p
	}
}

// latchMethod builds: entry(const,const,jmp) -> L(add,yield,jmp) ->
// M(yield,jmp) -> N(const,yield,cmplt,branch[L,done]) -> done(return).
// L fuses to the add+yield+jmp triple, M to yield+jmp, and N to a plain
// yield token between const and cmplt+br, so every yieldpoint the loop
// executes sits in a fused stream, one per yield token kind.
func latchMethod(name string, iters int64) *ir.Method {
	fb := ir.NewFunc(name, 0)
	fb.M.NumRegs = 8
	entry := fb.EntryBlock()
	entry.Append(ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 1})
	entry.Append(ir.Instr{Op: ir.OpConst, Dst: 2, Imm: iters})
	loop := fb.Block("L")
	mid := fb.Block("M")
	next := fb.Block("N")
	done := fb.Block("done")
	entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{loop}})
	loop.Append(ir.Instr{Op: ir.OpAdd, Dst: 0, A: 0, B: 1})
	loop.Append(ir.Instr{Op: ir.OpYield})
	loop.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{mid}})
	mid.Append(ir.Instr{Op: ir.OpYield})
	mid.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{next}})
	next.Append(ir.Instr{Op: ir.OpConst, Dst: 4, Imm: 1})
	next.Append(ir.Instr{Op: ir.OpYield})
	next.Append(ir.Instr{Op: ir.OpCmpLT, Dst: 3, A: 0, B: 2})
	next.Append(ir.Instr{Op: ir.OpBranch, A: 3, Targets: []*ir.Block{loop, done}})
	fb.At(done).Return(0)
	return fb.M
}

// TestFusedCancelMidSuperinstruction pre-fires a cancel token so the
// stop lands on the yieldpoint buried inside the add+yield+jmp triple:
// the fused path must reconstruct the same resume pc and flushed
// counters as the reference dispatcher.
func TestFusedCancelMidSuperinstruction(t *testing.T) {
	prog := latchLoop(1 << 40) // effectively unbounded without cancel
	var ms [2]*vm.VM
	var errs [2]error
	for i, reference := range []bool{false, true} {
		tok := vm.NewCancel()
		tok.Fire()
		ms[i] = vm.New(prog(), vm.Config{MaxCycles: 1 << 20, Cancel: tok, Reference: reference})
		_, errs[i] = ms[i].Run()
	}
	requireIdenticalStop(t, ms, errs, "cancelled")
	for i, err := range errs {
		if !vm.IsCancelled(err) {
			t.Fatalf("config %d: got %v, want CancelError", i, err)
		}
	}
	if fs := ms[0].FusionStats(); fs.ByKind["add+yield+jmp"] == 0 {
		t.Fatalf("cancel did not land in the fused latch; fusion stats: %+v", fs)
	}
}

// TestFusedQuantumRotation drives the same latch loop to completion
// under small quanta, so the scheduler's quantum-expiry path repeatedly
// suspends execution at the yieldpoint inside a fused latch and resumes
// at its jump through the tail jump token. The fast path and the
// reference dispatcher must agree on the full Result, and every
// instruction runs fused.
func TestFusedQuantumRotation(t *testing.T) {
	const iters = 40
	for _, q := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("quantum=%d", q), func(t *testing.T) {
			ms, rs, errs := pairRun(t, latchThreads(iters), vm.Config{MaxCycles: 1 << 20, Quantum: q})
			requireIdenticalResult(t, rs, errs)
			if fs := ms[0].FusionStats(); fs.ByKind["add+yield+jmp"] < iters {
				t.Errorf("latch entered %d times fused, want >= %d", fs.ByKind["add+yield+jmp"], iters)
			}
			requireAllFused(t, ms[0])
		})
	}
}

// overflowLoop builds a counted loop whose body block L writes and
// reads register big:
//
//	entry: r1=1; r2=iters; r7=trapAt; jmp L
//	L:     r0=r0+r1; big=r0-r7; r5=r1/big; print big; yield; jmp M
//	M:     r3=r0<r2; br r3 [L, done]
//	done:  return r0
//
// Every block but done is pure. With big > 0x7FFF, L overflows the
// fused encoding, so the whole program runs on the reference
// dispatcher. The division traps in the iteration where r0 == trapAt;
// a negative trapAt never traps. With threads > 1, main spawns
// threads-1 workers running the same loop, calls it itself, and joins
// them.
func overflowLoop(big ir.Reg, iters, trapAt int64, threads int) func() *ir.Program {
	return func() *ir.Program {
		lb := ir.NewFunc("loop", 0)
		lb.M.NumRegs = int(big) + 1
		entry := lb.EntryBlock()
		loop := lb.Block("L")
		mid := lb.Block("M")
		done := lb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 1})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 2, Imm: iters})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 7, Imm: trapAt})
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{loop}})
		loop.Append(ir.Instr{Op: ir.OpAdd, Dst: 0, A: 0, B: 1})
		loop.Append(ir.Instr{Op: ir.OpSub, Dst: big, A: 0, B: 7})
		loop.Append(ir.Instr{Op: ir.OpDiv, Dst: 5, A: 1, B: big})
		loop.Append(ir.Instr{Op: ir.OpPrint, A: big})
		loop.Append(ir.Instr{Op: ir.OpYield})
		loop.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{mid}})
		mid.Append(ir.Instr{Op: ir.OpCmpLT, Dst: 3, A: 0, B: 2})
		mid.Append(ir.Instr{Op: ir.OpBranch, A: 3, Targets: []*ir.Block{loop, done}})
		lb.At(done).Return(0)

		mb := ir.NewFunc("main", 0)
		mc := mb.At(mb.EntryBlock())
		var handles []ir.Reg
		for i := 1; i < threads; i++ {
			handles = append(handles, mc.Spawn(lb.M))
		}
		sum := mc.Call(lb.M)
		for _, h := range handles {
			sum = mc.Bin(ir.OpAdd, sum, mc.Join(h))
		}
		mc.Return(sum)
		p := &ir.Program{Name: "overflow", Funcs: []*ir.Method{lb.M, mb.M}, Main: mb.M}
		p.Seal()
		return p
	}
}

// TestFuseBlockOperandOverflow runs a loop whose body block uses a
// register beyond the fused encoding's int16 range end to end: to
// completion, with a trap inside the overflowing block, and with two
// threads rotating at its yieldpoint. Streams cannot represent the
// program, so the whole fast-path run must take the reference
// dispatcher (no stream built, nothing fused) and match it bit for
// bit; the same program with a small register runs every instruction
// fused.
func TestFuseBlockOperandOverflow(t *testing.T) {
	const big, iters = 0x9C40, 40 // register 40000 > 0x7FFF
	cases := []struct {
		name    string
		trapAt  int64
		threads int
		quantum int
	}{
		{"complete", -1, 1, 0},
		{"trap", iters / 2, 1, 0},
		{"threads", -1, 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			turns := 0 // scheduling turns across both runs
			cfg := vm.Config{MaxCycles: 1 << 24, Quantum: tc.quantum, Sched: func(int) { turns++ }}
			ms, rs, errs := pairRun(t, overflowLoop(big, iters, tc.trapAt, tc.threads), cfg)
			if tc.threads > 1 && turns < 2*iters {
				t.Fatalf("%d scheduling turns over both runs; the quantum never rotated at L's yieldpoint", turns)
			}
			if tc.trapAt >= 0 {
				requireIdenticalStop(t, ms, errs, "division by zero at loop:L(b1):2")
			} else {
				requireIdenticalResult(t, rs, errs)
			}
			if fs := ms[0].FusionStats(); fs.FusedBlocks != 0 || fs.BlockRuns != 0 || fs.Instrs != 0 {
				t.Fatalf("an operand past the encoding ran fused: %+v", fs)
			}
			// Control: the same program with a small register fuses all
			// five blocks (loop's four and main's entry) and runs every
			// instruction fused, the trap case up to its trap.
			ctl := vm.New(overflowLoop(8, iters, tc.trapAt, tc.threads)(), cfg)
			_, _ = ctl.Run()
			if fs := ctl.FusionStats(); fs.FusedBlocks != 5 {
				t.Fatalf("control run fused %d blocks, want 5", fs.FusedBlocks)
			}
			requireAllFused(t, ctl)
		})
	}
}

// noopObserver is the cheapest possible observer that declares no event
// mask: it gets every event, and its installation changes no result.
type noopObserver struct{}

func (noopObserver) OnEnter(*vm.Thread, *vm.Frame)                    {}
func (noopObserver) OnExit(*vm.Thread, *vm.Frame)                     {}
func (noopObserver) OnTransfer(*vm.Thread, *vm.Frame, *ir.Instr, int) {}
func (noopObserver) OnCheck(*vm.Thread, *vm.Frame, *ir.Instr, bool)   {}
func (noopObserver) OnProbe(*vm.Thread, *vm.Frame, *ir.Probe)         {}
func (noopObserver) OnYield(*vm.Thread, *vm.Frame)                    {}

// runPlainAndObserved runs prog without an observer and with obs, and
// requires identical results; it returns the observed VM.
func runPlainAndObserved(t *testing.T, prog func() *ir.Program, obs vm.Observer) *vm.VM {
	t.Helper()
	plain := vm.New(prog(), vm.Config{MaxCycles: 1 << 20})
	pres, perr := plain.Run()
	if perr != nil {
		t.Fatalf("plain run: %v", perr)
	}
	if fs := plain.FusionStats(); fs.FusedBlocks == 0 || fs.Instrs == 0 {
		t.Fatalf("control run did not fuse: %+v", fs)
	}
	observed := vm.New(prog(), vm.Config{MaxCycles: 1 << 20, Observer: obs})
	ores, oerr := observed.Run()
	if oerr != nil {
		t.Fatalf("observed run: %v", oerr)
	}
	if ores.Return != pres.Return || observed.Stats() != plain.Stats() {
		t.Fatalf("observed run diverged:\n  fused:    ret=%d %+v\n  observed: ret=%d %+v",
			pres.Return, plain.Stats(), ores.Return, observed.Stats())
	}
	return observed
}

// TestAllEventsObserverKeepsFusion pins the observer contract of
// DESIGN.md §7.6 for an observer that declares no event mask: the fast
// path keeps its streams with every chain edge cut, so every
// instruction still runs fused, the observed run's results match the
// unobserved run's, and the observer sees the reference dispatcher's
// event sequence at the same cycles — on two threads rotating at fused
// latches and joining, and on a sampled loop whose checks fire into
// duplicated code.
func TestAllEventsObserverKeepsFusion(t *testing.T) {
	requireAllFused(t, runPlainAndObserved(t, latchThreads(100), noopObserver{}))
	for _, tc := range []struct {
		name string
		prog func() *ir.Program
	}{{"threads", latchThreads(100)}, {"sampled", sampledLoop(60)}} {
		t.Run(tc.name, func(t *testing.T) {
			var logs [2]*eventLog
			for i, reference := range []bool{false, true} {
				logs[i] = &eventLog{}
				logs[i].v = vm.New(tc.prog(), vm.Config{
					Trigger: trigger.NewCounter(3), MaxCycles: 1 << 20, Quantum: 5, Observer: logs[i], Reference: reference,
				})
				if _, err := logs[i].v.Run(); err != nil {
					t.Fatalf("reference=%v: %v", reference, err)
				}
			}
			if len(logs[0].log) == 0 || !slices.Equal(logs[0].log, logs[1].log) {
				t.Fatalf("events differ: fast saw %d, reference %d", len(logs[0].log), len(logs[1].log))
			}
			if logs[0].v.Stats() != logs[1].v.Stats() {
				t.Fatalf("stats diverge:\n  fast:      %+v\n  reference: %+v", logs[0].v.Stats(), logs[1].v.Stats())
			}
			requireAllFused(t, logs[0].v)
		})
	}
}

// wakeObserver is a sparse observer: no hook classes, only a deadline
// every period cycles. Like the telemetry meter it acts only on the
// first non-transfer event at or after its deadline, so it records the
// same wakes whether the VM filters events for it (fast path) or
// delivers every one (reference dispatcher). It also logs every
// sampling-episode boundary transfer, which the VM always delivers.
type wakeObserver struct {
	v      *vm.VM
	period uint64
	next   uint64
	// wakes holds (Now, Stats().Yields) at each wake.
	wakes [][2]uint64
	// edges holds (Now, target) at each checking↔duplicated transfer.
	edges  [][2]uint64
	onWake func(n int)
}

func newWakeObserver(period uint64) *wakeObserver {
	return &wakeObserver{period: period, next: period}
}

func (o *wakeObserver) Events() vm.EventMask { return 0 }
func (o *wakeObserver) NextWake() uint64     { return o.next }

func (o *wakeObserver) tick() {
	now := o.v.Now()
	if now < o.next {
		return
	}
	o.wakes = append(o.wakes, [2]uint64{now, o.v.Stats().Yields})
	o.next = (now/o.period + 1) * o.period
	if o.onWake != nil {
		o.onWake(len(o.wakes))
	}
}

func (o *wakeObserver) OnEnter(*vm.Thread, *vm.Frame)                  { o.tick() }
func (o *wakeObserver) OnExit(*vm.Thread, *vm.Frame)                   { o.tick() }
func (o *wakeObserver) OnCheck(*vm.Thread, *vm.Frame, *ir.Instr, bool) { o.tick() }
func (o *wakeObserver) OnProbe(*vm.Thread, *vm.Frame, *ir.Probe)       { o.tick() }
func (o *wakeObserver) OnYield(*vm.Thread, *vm.Frame)                  { o.tick() }

func (o *wakeObserver) OnTransfer(_ *vm.Thread, f *vm.Frame, in *ir.Instr, target int) {
	if (f.Block.Kind == ir.KindDuplicated) != (in.Targets[target].Kind == ir.KindDuplicated) {
		o.edges = append(o.edges, [2]uint64{o.v.Now(), uint64(in.Targets[target].GID)})
	}
}

// runWake runs prog under a fresh wakeObserver on the fast path or the
// reference dispatcher.
func runWake(prog func() *ir.Program, cfg vm.Config, period uint64, reference bool) (*vm.VM, *wakeObserver, *vm.Result, error) {
	o := newWakeObserver(period)
	cfg.Observer = o
	cfg.Reference = reference
	o.v = vm.New(prog(), cfg)
	res, err := o.v.Run()
	return o.v, o, res, err
}

// TestSparseObserverKeepsFusion pins the other half of the observer
// contract: an observer whose mask lacks EvTransfer keeps fused streams
// — results unchanged — and still sees every sampling-episode boundary
// transfer at the cycle the reference dispatcher reports, because fused
// chains end at checking↔duplicated edges.
func TestSparseObserverKeepsFusion(t *testing.T) {
	obs := runPlainAndObserved(t, latchLoop(100), newWakeObserver(1<<40))
	if fs := obs.FusionStats(); fs.Instrs == 0 || fs.ByKind["add+yield+jmp"] == 0 {
		t.Fatalf("sparse observer disabled fusion: %+v", fs)
	}

	prog := func() *ir.Program {
		res, err := compile.Compile(bench.Compress(0.005), compile.Options{
			Instrumenters: []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}},
			Framework:     &core.Options{Variation: core.FullDuplication},
		})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return res.Prog
	}
	cfg := vm.Config{Trigger: trigger.NewCounter(97), MaxCycles: 1 << 34}
	fast, fo, fres, ferr := runWake(prog, cfg, 1<<12, false)
	cfg.Trigger = trigger.NewCounter(97)
	_, ro, rres, rerr := runWake(prog, cfg, 1<<12, true)
	if ferr != nil || rerr != nil {
		t.Fatalf("runs failed: fast %v, reference %v", ferr, rerr)
	}
	if fres.Stats != rres.Stats || fres.Return != rres.Return {
		t.Fatalf("results diverge:\n  fast:      %+v\n  reference: %+v", fres.Stats, rres.Stats)
	}
	if fast.FusionStats().Instrs == 0 {
		t.Fatal("sparse observer disabled fusion on the sampled run")
	}
	if fres.Stats.DupEntries == 0 || len(fo.edges) < int(fres.Stats.DupEntries) {
		t.Fatalf("saw %d boundary transfers for %d duplicated-code entries", len(fo.edges), fres.Stats.DupEntries)
	}
	if !slices.Equal(fo.edges, ro.edges) {
		t.Fatalf("boundary transfers differ: fast saw %d, reference %d", len(fo.edges), len(ro.edges))
	}
	if len(fo.wakes) == 0 || !slices.Equal(fo.wakes, ro.wakes) {
		t.Fatalf("wakes differ: fast saw %d, reference %d", len(fo.wakes), len(ro.wakes))
	}
}

// TestFusedYieldWakeExact requires a deadline observer on the latch loop
// — every yieldpoint inside a fused add+yield+jmp, yield+jmp or plain
// yield token — to wake at the same cycle with the same yield count as
// on the reference dispatcher, across deadlines from every yield to a
// few per run.
func TestFusedYieldWakeExact(t *testing.T) {
	for _, period := range []uint64{1, 5, 7, 64, 1000} {
		t.Run(fmt.Sprintf("period=%d", period), func(t *testing.T) {
			cfg := vm.Config{MaxCycles: 1 << 20}
			fast, fo, fres, ferr := runWake(latchLoop(200), cfg, period, false)
			_, ro, rres, rerr := runWake(latchLoop(200), cfg, period, true)
			requireIdenticalResult(t, [2]*vm.Result{fres, rres}, [2]error{ferr, rerr})
			if len(fo.wakes) == 0 || !slices.Equal(fo.wakes, ro.wakes) {
				t.Fatalf("wakes differ:\n  fast:      %v\n  reference: %v", fo.wakes, ro.wakes)
			}
			fs := fast.FusionStats()
			for _, kind := range []string{"add+yield+jmp", "yield+jmp"} {
				if fs.ByKind[kind] == 0 {
					t.Fatalf("%s never ran fused: %+v", kind, fs)
				}
			}
		})
	}
}

// TestFusedWakeCancel fires a cancel token from inside the n-th wake's
// hook, so the stop lands on the fused yieldpoint that delivered it:
// both dispatchers must stop there with identical counters.
func TestFusedWakeCancel(t *testing.T) {
	for n := 1; n <= 6; n++ {
		t.Run(fmt.Sprintf("wake=%d", n), func(t *testing.T) {
			var ms [2]*vm.VM
			var errs [2]error
			var wakes [2][][2]uint64
			for i, reference := range []bool{false, true} {
				tok := vm.NewCancel()
				o := newWakeObserver(13)
				o.onWake = func(k int) {
					if k == n {
						tok.Fire()
					}
				}
				ms[i] = vm.New(latchLoop(1<<40)(), vm.Config{MaxCycles: 1 << 20, Cancel: tok, Observer: o, Reference: reference})
				o.v = ms[i]
				_, errs[i] = ms[i].Run()
				wakes[i] = o.wakes
			}
			requireIdenticalStop(t, ms, errs, "cancelled")
			if len(wakes[0]) != n || !slices.Equal(wakes[0], wakes[1]) {
				t.Fatalf("wakes differ:\n  fast:      %v\n  reference: %v", wakes[0], wakes[1])
			}
			if ms[0].FusionStats().Instrs == 0 {
				t.Fatal("cancel did not land in a fused run")
			}
		})
	}
}

// TestFusedWakeQuantum runs two threads through the latch loop with tiny
// quanta, so quantum expiry lands on the fused yieldpoints that deliver
// wakes: the scheduling, the wakes and the Result must match the
// reference dispatcher.
func TestFusedWakeQuantum(t *testing.T) {
	for _, q := range []int{1, 2, 3} {
		for _, period := range []uint64{1, 11} {
			t.Run(fmt.Sprintf("quantum=%d/period=%d", q, period), func(t *testing.T) {
				var turns [2][]int
				var res [2]*vm.Result
				var errs [2]error
				var wakes [2][][2]uint64
				var ms [2]*vm.VM
				for i, reference := range []bool{false, true} {
					cfg := vm.Config{MaxCycles: 1 << 20, Quantum: q, Sched: func(id int) { turns[i] = append(turns[i], id) }}
					var o *wakeObserver
					ms[i], o, res[i], errs[i] = runWake(latchThreads(40), cfg, period, reference)
					wakes[i] = o.wakes
				}
				requireIdenticalResult(t, res, errs)
				if len(turns[0]) < 40 || !slices.Equal(turns[0], turns[1]) {
					t.Fatalf("schedules differ or never rotated: fast %d turns, reference %d", len(turns[0]), len(turns[1]))
				}
				if len(wakes[0]) == 0 || !slices.Equal(wakes[0], wakes[1]) {
					t.Fatalf("wakes differ:\n  fast:      %v\n  reference: %v", wakes[0], wakes[1])
				}
				if ms[0].FusionStats().Instrs == 0 {
					t.Fatal("the observed two-thread run did not fuse")
				}
			})
		}
	}
}

// TestFusedFractionCompress is the coverage check behind BENCH_PR7.json's
// fused-fraction column: on the compress kernel every executed
// instruction runs on a fused stream, uninstrumented and with call-edge
// + field-access instrumentation (exhaustive or sampled every 1000
// checks), and superinstructions carry more than a quarter of the
// uninstrumented run.
func TestFusedFractionCompress(t *testing.T) {
	for _, leg := range fractionLegs {
		t.Run(leg.name, func(t *testing.T) {
			fs, total := fractionRun(t, bench.Compress(0.01), leg.inst, leg.fw)
			if fs.Instrs != total {
				t.Errorf("fused tier retired %d of %d instructions, want all", fs.Instrs, total)
			}
			if frac := float64(fs.Fused) / float64(fs.Instrs); !leg.inst && frac < 0.25 {
				t.Errorf("fused-dispatch fraction %.1f%%, want >= 25%%", frac*100)
			}
		})
	}
}

// fractionLegs are the coverage-floor tests' configurations:
// uninstrumented, and call-edge + field-access exhaustive or under two
// sampling variations.
var fractionLegs = []struct {
	name string
	inst bool
	fw   *core.Options
}{
	{"uninstrumented", false, nil},
	{"exhaustive", true, nil},
	{"full-dup", true, &core.Options{Variation: core.FullDuplication}},
	{"nodup", true, &core.Options{Variation: core.NoDuplication}},
}

// fractionRun compiles prog for one leg, runs it on the fast path with
// a counter trigger sampling every 1000 checks, and returns the fusion
// coverage and the executed instruction count.
func fractionRun(t *testing.T, prog *ir.Program, inst bool, fw *core.Options) (vm.FusionStats, uint64) {
	t.Helper()
	opts := compile.Options{Framework: fw}
	if inst {
		opts.Instrumenters = []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}}
	}
	res, err := compile.Compile(prog, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := vm.New(res.Prog, vm.Config{Handlers: res.Handlers, Trigger: trigger.NewCounter(1000), MaxCycles: 1 << 33})
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	fs, total := m.FusionStats(), m.Stats().Instrs
	if total == 0 || fs.Instrs == 0 {
		t.Fatalf("no instructions attributed: fs=%+v total=%d", fs, total)
	}
	return fs, total
}

// TestFusedFractionCalls is TestFusedFractionCompress for the
// call-heavy suite programs and the threaded ones: every block of them
// runs as a fused stream (calls, returns, spawns and joins end fused
// segments), so every executed instruction runs fused, uninstrumented
// and instrumented. FusionStats.Instrs is exact, so it equals
// Stats.Instrs: mid-block resumes after calls, joins and reschedules
// never count a block twice.
func TestFusedFractionCalls(t *testing.T) {
	for _, name := range []string{"jess", "javac", "mtrt", "optc", "pbob", "volano"} {
		for _, leg := range fractionLegs {
			t.Run(name+"/"+leg.name, func(t *testing.T) {
				b, err := bench.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				fs, total := fractionRun(t, b.Build(0.01), leg.inst, leg.fw)
				if fs.Instrs != total {
					t.Errorf("fused tier retired %d of %d instructions, want all", fs.Instrs, total)
				}
			})
		}
	}
}

// TestFusedFractionScaled runs call-heavy and threaded suite programs
// with methods at several cost scales (Config.CostScale, as package
// adaptive sets it), one of them large enough that cost*scale wraps its
// uint32 product: each frame runs the stream table priced at its
// method's scale, so every instruction runs fused and the Result
// matches the reference dispatcher's bit for bit.
func TestFusedFractionScaled(t *testing.T) {
	scales := []uint32{1, 3, 7, 1 << 31}
	for _, name := range []string{"jess", "pbob", "volano"} {
		t.Run(name, func(t *testing.T) {
			b, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := compile.Compile(b.Build(0.01), compile.Options{
				Instrumenters: []instr.Instrumenter{&instr.CallEdge{}},
				Framework:     &core.Options{Variation: core.FullDuplication, YieldpointOpt: true},
			})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var ms [2]*vm.VM
			var rs [2]*vm.Result
			var errs [2]error
			for i, reference := range []bool{false, true} {
				ms[i] = vm.New(res.Prog, vm.Config{
					Trigger: trigger.NewCounter(211), MaxCycles: 1 << 62, Reference: reference,
					CostScale: func(m *ir.Method) uint32 { return scales[m.ID%len(scales)] },
				})
				rs[i], errs[i] = ms[i].Run()
			}
			requireIdenticalResult(t, rs, errs)
			requireAllFused(t, ms[0])
		})
	}
}

// TestFusionDifferentialSweep is the seeded sweep `make race` pins by
// name: random programs (threaded and not) across a variant
// subset, healthy and cancelled, fused always compared bit-for-bit
// against the reference dispatcher. It subsumes nothing — the broad
// differential tests already compare the fast path with the reference —
// but gives CI a single named test that forces fusion through every
// variation under -race.
func TestFusionDifferentialSweep(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	// One variant per fused framework token: probes (full-dup), checked
	// probes (nodup), loop checks (full-counted), checks in place of
	// yieldpoints (full-yp), and checks polling the live cycle count
	// (timer).
	picks := []string{"plain", "full-dup", "full-counted", "nodup", "full-yp", "timer"}
	var variants []diffVariant
	for _, v := range diffVariants() {
		if slices.Contains(picks, v.name) {
			variants = append(variants, v)
		}
	}
	if len(variants) != len(picks) {
		t.Fatalf("picked %d of the %d variants %v", len(variants), len(picks), picks)
	}
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			prog := ir.RandomProgram(seed, ir.RandomProgramConfig{WithThreads: s%2 == 0})
			if err := prog.Verify(ir.VerifyBase); err != nil {
				t.Fatalf("generated program invalid: %v", err)
			}
			for _, v := range variants {
				ref, refRT, rerr := diffRun(t, prog, v, seed, true)
				fast, fastRT, ferr := diffRun(t, prog, v, seed, false)
				if (ferr == nil) != (rerr == nil) {
					t.Fatalf("%s: fused err %v, reference err %v", v.name, ferr, rerr)
				}
				if ferr != nil {
					if ferr.Error() != rerr.Error() {
						t.Fatalf("%s: traps differ:\n  fused:     %v\n  reference: %v", v.name, ferr, rerr)
					}
				} else {
					compareRuns(t, v.name+"/fused", fast, ref, fastRT, refRT)
				}

				// Cancelled leg: a pre-fired token must stop both
				// dispatchers at the same observation point with
				// identical partial counters (fused path included).
				var stats [2]vm.Stats
				var msgs [2]string
				for i, reference := range []bool{false, true} {
					tok := vm.NewCancel()
					tok.Fire()
					m, _, _, cerr := cancelRun(t, prog, v, seed, reference, tok, nil)
					if cerr == nil {
						t.Fatalf("%s ref=%v: run survived pre-fired cancel", v.name, reference)
					}
					msgs[i] = cerr.Error()
					stats[i] = m.Stats()
				}
				if msgs[0] != msgs[1] {
					t.Errorf("%s: cancel errors differ:\n  fused:     %s\n  reference: %s", v.name, msgs[0], msgs[1])
				}
				if stats[0] != stats[1] {
					t.Errorf("%s: cancel stats diverge\n  fused:     %+v\n  reference: %+v", v.name, stats[0], stats[1])
				}
			}
		})
	}
}

// probeLog is a probe handler recording, for every probe, its ID, the
// observed value, the VM's cycle count and the frame's pc at the call:
// what a handler can see, which must not depend on the dispatcher.
type probeLog struct {
	v      *vm.VM
	events [][4]uint64
}

func (h *probeLog) HandleProbe(ev *vm.ProbeEvent) {
	h.events = append(h.events, [4]uint64{uint64(ev.Probe.ID), uint64(ev.Value), h.v.Now(), uint64(ev.Thread.Top().PC)})
}

// sampledLoop builds a hand-transformed sampling loop in which every
// block but done is fusible:
//
//	entry: r1=1; r2=iters; jmp C
//	C:     check [D, L]                                 (check block)
//	L:     r0=r0+r1; checkedprobe #1; io 3; r3=r0<r2; br r3 [C, done]
//	D:     probe #2; r0=r0+r1; io 5; probe #3(r0); r3=r0<r2; br r3 [C, done]
//	done:  return r0                                    (duplicated: D)
//
// L is checking code with a No-Duplication guard mid-block, D its
// duplicated copy with probes before and after an immediate cost.
func sampledLoop(iters int64) func() *ir.Program {
	return func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = 8
		entry := fb.EntryBlock()
		chk := fb.Block("C")
		chk.Kind = ir.KindCheckBlock
		loop := fb.Block("L")
		dup := fb.Block("D")
		dup.Kind = ir.KindDuplicated
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 1})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 2, Imm: iters})
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{chk}})
		chk.Append(ir.Instr{Op: ir.OpCheck, Targets: []*ir.Block{dup, loop}, BackedgeMask: 0b11})
		loop.Append(ir.Instr{Op: ir.OpAdd, Dst: 0, A: 0, B: 1})
		loop.Append(ir.Instr{Op: ir.OpCheckedProbe, Probe: &ir.Probe{Kind: ir.ProbeEvent, ID: 1, Cost: 7}})
		loop.Append(ir.Instr{Op: ir.OpIO, Imm: 3})
		loop.Append(ir.Instr{Op: ir.OpCmpLT, Dst: 3, A: 0, B: 2})
		loop.Append(ir.Instr{Op: ir.OpBranch, A: 3, Targets: []*ir.Block{chk, done}})
		dup.Append(ir.Instr{Op: ir.OpProbe, Probe: &ir.Probe{Kind: ir.ProbeEvent, ID: 2, Cost: 6}})
		dup.Append(ir.Instr{Op: ir.OpAdd, Dst: 0, A: 0, B: 1})
		dup.Append(ir.Instr{Op: ir.OpIO, Imm: 5})
		dup.Append(ir.Instr{Op: ir.OpProbe, Probe: &ir.Probe{Kind: ir.ProbeValue, ID: 3, Reg: 0, Cost: 2}})
		dup.Append(ir.Instr{Op: ir.OpCmpLT, Dst: 3, A: 0, B: 2})
		dup.Append(ir.Instr{Op: ir.OpBranch, A: 3, Targets: []*ir.Block{chk, done}})
		fb.At(done).Return(0)
		p := &ir.Program{Name: "sampled", Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
}

// sampledRun runs sampledLoop under one dispatcher with a probeLog and,
// when obs is non-nil, a wake observer.
func sampledRun(iters int64, trig trigger.Trigger, obs *wakeObserver, reference bool) (*vm.VM, *probeLog, *vm.Result, error) {
	h := &probeLog{}
	cfg := vm.Config{Trigger: trig, Handlers: []vm.ProbeHandler{h}, MaxCycles: 1 << 24, Reference: reference}
	if obs != nil {
		cfg.Observer = obs
	}
	m := vm.New(sampledLoop(iters)(), cfg)
	h.v = m
	if obs != nil {
		obs.v = m
	}
	res, err := m.Run()
	return m, h, res, err
}

// requireAllFused asserts that every instruction, the final return
// included, ran on the fused tier: every check and probe stayed inside
// a chain.
func requireAllFused(t *testing.T, m *vm.VM) {
	t.Helper()
	if fs, total := m.FusionStats(), m.Stats().Instrs; fs.Instrs != total {
		t.Fatalf("fused tier ran %d of %d instructions, want all", fs.Instrs, total)
	}
}

// TestFusedCheckFiresEveryPoll samples at interval 1, so every fused
// check fires and the chain runs on into duplicated code at every
// iteration: counters, probe events (cycle and pc at each call) and the
// Result must match the reference dispatcher.
func TestFusedCheckFiresEveryPoll(t *testing.T) {
	const iters = 50
	var ms [2]*vm.VM
	var logs [2]*probeLog
	var rs [2]*vm.Result
	var errs [2]error
	for i, reference := range []bool{false, true} {
		ms[i], logs[i], rs[i], errs[i] = sampledRun(iters, trigger.NewCounter(1), nil, reference)
	}
	requireIdenticalResult(t, rs, errs)
	if s := rs[0].Stats; s.Checks != iters || s.CheckFires != iters || s.DupEntries != iters || s.Probes != 2*iters {
		t.Fatalf("want %d checks, fires and duplicated-code entries and %d probes: %+v", iters, 2*iters, s)
	}
	if !slices.Equal(logs[0].events, logs[1].events) {
		t.Fatalf("probe events differ:\n  fast:      %v\n  reference: %v", logs[0].events, logs[1].events)
	}
	requireAllFused(t, ms[0])
}

// TestFusedTimerCheck drives the fused checks and the mid-block guard
// with a timer trigger, which polls the live cycle count: a poll given
// any other count than per-instruction dispatch's changes which checks
// fire. Every poll's (thread, cycles) context, every probe event and the
// Result must match the reference dispatcher, also with a sparse wake
// observer installed, whose wakes land on fused checks and probes.
func TestFusedTimerCheck(t *testing.T) {
	for _, period := range []uint64{29, 61, 101} {
		for _, observed := range []bool{false, true} {
			t.Run(fmt.Sprintf("period=%d/observed=%v", period, observed), func(t *testing.T) {
				var ms [2]*vm.VM
				var logs [2]*probeLog
				var polls [2]trigger.Log
				var obs [2]*wakeObserver
				var rs [2]*vm.Result
				var errs [2]error
				for i, reference := range []bool{false, true} {
					rec := trigger.NewRecorder(trigger.NewTimer(period))
					if observed {
						obs[i] = newWakeObserver(53)
					}
					ms[i], logs[i], rs[i], errs[i] = sampledRun(200, rec, obs[i], reference)
					polls[i] = rec.Log()
				}
				requireIdenticalResult(t, rs, errs)
				if s := rs[0].Stats; s.CheckFires == 0 || s.CheckFires == s.Checks || s.DupEntries == 0 {
					t.Fatalf("want some checks to fire and some not: %+v", s)
				}
				if p := polls[0]; p.Polls != polls[1].Polls || p.Fires != polls[1].Fires || p.Checksum != polls[1].Checksum {
					t.Fatalf("poll streams differ:\n  fast:      %+v\n  reference: %+v", p, polls[1])
				}
				if !slices.Equal(logs[0].events, logs[1].events) {
					t.Fatalf("probe events differ:\n  fast:      %v\n  reference: %v", logs[0].events, logs[1].events)
				}
				if observed {
					if len(obs[0].wakes) == 0 || !slices.Equal(obs[0].wakes, obs[1].wakes) {
						t.Fatalf("wakes differ:\n  fast:      %v\n  reference: %v", obs[0].wakes, obs[1].wakes)
					}
					if !slices.Equal(obs[0].edges, obs[1].edges) {
						t.Fatalf("boundary transfers differ:\n  fast:      %v\n  reference: %v", obs[0].edges, obs[1].edges)
					}
					if ms[0].FusionStats().Instrs == 0 {
						t.Fatal("sparse observer disabled fusion")
					}
					return
				}
				requireAllFused(t, ms[0])
			})
		}
	}
}

// TestFusedTrapAfterProbe traps in the instruction right after a fused
// probe (unguarded, and a fired No-Duplication guard): the probe's cost,
// its handler call and the trap's pc and counters must match the
// reference dispatcher.
func TestFusedTrapAfterProbe(t *testing.T) {
	cl := &ir.Class{Name: "C", FieldNames: []string{"f"}}
	for _, op := range []ir.Op{ir.OpProbe, ir.OpCheckedProbe} {
		t.Run(op.String(), func(t *testing.T) {
			// entry: r1=5; probe; r2 = r3.f (r3 null: traps); jmp done
			prog := func() *ir.Program {
				fb := ir.NewFunc("main", 0)
				fb.M.NumRegs = 8
				entry := fb.EntryBlock()
				done := fb.Block("done")
				entry.Append(ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 5})
				entry.Append(ir.Instr{Op: op, Probe: &ir.Probe{Kind: ir.ProbeEvent, ID: 4, Cost: 9}})
				entry.Append(ir.Instr{Op: ir.OpGetField, Dst: 2, A: 3, Class: cl})
				entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{done}})
				fb.At(done).Return(1)
				p := &ir.Program{Name: "trapafterprobe", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{fb.M}, Main: fb.M}
				p.Seal()
				return p
			}
			var ms [2]*vm.VM
			var logs [2]*probeLog
			var errs [2]error
			for i, reference := range []bool{false, true} {
				logs[i] = &probeLog{}
				ms[i] = vm.New(prog(), vm.Config{
					Trigger: trigger.Always{}, Handlers: []vm.ProbeHandler{logs[i]}, MaxCycles: 1 << 20, Reference: reference,
				})
				logs[i].v = ms[i]
				_, errs[i] = ms[i].Run()
			}
			requireIdenticalStop(t, ms, errs, "getfield on null or non-object at main:entry(b0):2")
			if len(logs[0].events) != 1 || !slices.Equal(logs[0].events, logs[1].events) {
				t.Fatalf("probe events differ:\n  fast:      %v\n  reference: %v", logs[0].events, logs[1].events)
			}
			if fs := ms[0].FusionStats(); fs.BlockRuns == 0 {
				t.Fatalf("the probe's block never ran fused: %+v", fs)
			}
		})
	}
}
