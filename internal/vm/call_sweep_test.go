package vm_test

// The call-boundary differential sweep, in the spirit of microsmith: one
// program generator (callProgram) whose output runs under many
// configurations, every output compared. Each program family aims at
// one seam of the fused call and return tokens — a call at a random
// position in a long block, a virtual call to every override, a trap
// in the callee's first instruction or in the caller's instruction
// after the call, a yield inside a callee with two threads at quantum
// 1, an overflow trap from a fused call, a callee at another cost scale,
// a block too wide for the fused encoding beside fused callers — and
// every program runs under each variation × trigger × observer on the
// fast path and on the reference dispatcher, which must agree on the
// Result or trap, Stats, profiles, every probe event (cycle and pc),
// every observed event and every scheduling turn.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// callShape names one program family of callProgram.
type callShape int

const (
	shapeLongBlocks      callShape = iota // calls at random positions in long blocks
	shapeVirtual                          // virtual calls to every override
	shapeNullReceiver                     // a virtual call on null after fused calls
	shapeMissingMethod                    // a virtual call to a class without the method
	shapeTrapAfterCall                    // the callee's first instruction traps
	shapeTrapAfterReturn                  // the caller's instruction after the call traps
	shapeYieldThreads                     // two threads at quantum 1 yield inside callees
	shapeRecursion                        // recursion to MaxStack: the overflow traps at a fused call
	shapeScaled                           // a callee at cost scale 3 between fused frames
	shapeWide                             // an operand-overflow block beside fused callers
	shapeRandom                           // ir.RandomProgram with call, virtual and thread bias
	numCallShapes
)

var callShapeNames = [numCallShapes]string{
	"long-blocks", "virtual", "null-receiver", "missing-method", "trap-after-call",
	"trap-after-return", "yield-threads", "recursion", "scaled", "wide", "random",
}

// callSweepMaxStack bounds the call depth of every sweep run; the
// recursion family recurses past it.
const callSweepMaxStack = 40

// callGen holds one generated program's pieces.
type callGen struct {
	r     *ir.Rand
	base  *ir.Class // declares field x and virtual m
	subs  []*ir.Class
	other *ir.Class // has field x but no m
	funcs []*ir.Method
}

// ops emits k random straight-line operations folding into acc and
// returns the new accumulator register.
func (g *callGen) ops(c *ir.Cursor, acc ir.Reg, k int) ir.Reg {
	for range k {
		switch g.r.Intn(6) {
		case 0:
			acc = c.Bin(ir.OpAdd, acc, c.Const(int64(g.r.Intn(97)+1)))
		case 1:
			acc = c.Bin(ir.OpXor, acc, c.Const(int64(g.r.Intn(1<<16))))
		case 2:
			acc = c.Bin(ir.OpShr, c.Bin(ir.OpMul, acc, c.Const(31)), c.Const(int64(g.r.Intn(5))))
		case 3:
			acc = c.Bin(ir.OpAnd, acc, c.Const(0xFFFFF))
		case 4:
			acc = c.Bin(ir.OpSub, acc, c.Bin(ir.OpCmpLT, acc, c.Const(int64(g.r.Intn(1000)))))
		default:
			acc = c.Bin(ir.OpAdd, acc, acc)
		}
	}
	return acc
}

// leaf builds a one-block helper leaf(p) = ops(p) of n operations.
func (g *callGen) leaf(name string, n int) *ir.Method {
	b := ir.NewFunc(name, 1)
	c := b.At(b.EntryBlock())
	c.Return(g.ops(c, 0, n))
	g.funcs = append(g.funcs, b.M)
	return b.M
}

// caller builds mid(p): one long block with calls to each callee at
// random positions between runs of operations.
func (g *callGen) caller(name string, callees ...*ir.Method) *ir.Method {
	b := ir.NewFunc(name, 1)
	c := b.At(b.EntryBlock())
	acc := ir.Reg(0)
	for _, m := range callees {
		acc = g.ops(c, acc, g.r.Intn(12))
		acc = c.Bin(ir.OpAdd, acc, c.Call(m, acc))
	}
	c.Return(g.ops(c, acc, g.r.Intn(12)))
	g.funcs = append(g.funcs, b.M)
	return b.M
}

// classes declares base, its subclasses (two overriding m, one
// inheriting an override) and other, which lacks m. Each m reads and
// writes the receiver's field and calls a static helper mid-block.
func (g *callGen) classes(helper *ir.Method) {
	g.base = &ir.Class{Name: "Base", FieldNames: []string{"x"}}
	s1 := &ir.Class{Name: "S1", Super: g.base}
	s2 := &ir.Class{Name: "S2", Super: g.base}
	s3 := &ir.Class{Name: "S3", Super: s1}
	g.subs = []*ir.Class{g.base, s1, s2, s3}
	g.other = &ir.Class{Name: "Other", FieldNames: []string{"x"}}
	for i, cl := range []*ir.Class{g.base, s1, s2} {
		b := ir.NewMethod(cl, "m", 2)
		c := b.At(b.EntryBlock())
		acc := g.ops(c, c.Bin(ir.OpAdd, c.GetField(0, g.base, "x"), 1), g.r.Intn(8))
		acc = c.Bin(ir.OpXor, acc, c.Call(helper, acc))
		acc = g.ops(c, c.Bin(ir.OpAdd, acc, c.Const(int64(100*(i+1)))), g.r.Intn(8))
		c.PutField(0, g.base, "x", acc)
		c.Return(acc)
	}
}

// objects emits an array holding one instance of each class in g.subs
// followed by last (nil: the slot stays null) and returns the array
// register and its length.
func (g *callGen) objects(c *ir.Cursor, last *ir.Class) (ir.Reg, ir.Reg) {
	n := len(g.subs) + 1
	ln := c.Const(int64(n))
	arr := c.NewArray(ln)
	for i, cl := range g.subs {
		c.AStore(arr, c.Const(int64(i)), c.New(cl))
	}
	if last != nil {
		c.AStore(arr, c.Const(int64(n-1)), c.New(last))
	}
	return arr, ln
}

func (g *callGen) program(main *ir.Method) *ir.Program {
	p := &ir.Program{Name: "callsweep", Funcs: append(g.funcs, main), Main: main}
	if g.base != nil {
		p.Classes = append(append([]*ir.Class(nil), g.subs...), g.other)
	}
	p.Seal()
	return p
}

// callProgram generates one program of the given family from seed, with
// the VM settings the family needs.
func callProgram(shape callShape, seed uint64) (*ir.Program, vm.Config) {
	g := &callGen{r: ir.NewRand(seed)}
	cfg := vm.Config{MaxCycles: 1 << 30, MaxStack: callSweepMaxStack}
	if shape == shapeRandom {
		return ir.RandomProgram(seed, ir.RandomProgramConfig{
			WithThreads: true, CallBiasPct: 30, VirtBiasPct: 25, LoopBiasPct: 15,
		}), cfg
	}
	leaf := g.leaf("leaf", 4+g.r.Intn(20))
	mid := g.caller("mid", leaf, g.leaf("leaf2", 2+g.r.Intn(10)), leaf)
	mb := ir.NewFunc("main", 0)
	c := mb.At(mb.EntryBlock())
	acc := c.Const(int64(seed % 1000))
	iters := c.Const(int64(3 + g.r.Intn(4)))
	switch shape {
	case shapeLongBlocks, shapeScaled, shapeWide:
		callee := mid
		switch shape {
		case shapeScaled:
			// scaled runs at cost scale 3 and calls fused code; mid2
			// calls it from a fused block.
			scaled := g.caller("scaled", leaf, mid)
			callee = g.caller("mid2", scaled, leaf)
			cfg.CostScale = func(m *ir.Method) uint32 {
				if m.Name == "scaled" {
					return 3
				}
				return 1
			}
		case shapeWide:
			callee = g.wide(leaf, mid)
		}
		lp := c.CountedLoop(iters, "l")
		body := lp.Body
		a := g.ops(body, acc, g.r.Intn(10))
		a = body.Bin(ir.OpAdd, a, body.Call(callee, a))
		a = g.ops(body, a, g.r.Intn(10))
		a = body.Bin(ir.OpXor, a, body.Call(leaf, lp.I))
		a = g.ops(body, a, g.r.Intn(10))
		body.Move(acc, a)
		body.Print(acc)
		body.Jump(lp.Latch)
		lp.After.Return(acc)
	case shapeVirtual, shapeNullReceiver, shapeMissingMethod:
		g.classes(leaf)
		var last *ir.Class
		switch shape {
		case shapeVirtual:
			last = g.subs[g.r.Intn(len(g.subs))]
		case shapeMissingMethod:
			last = g.other
		}
		arr, ln := g.objects(c, last)
		lp := c.CountedLoop(ln, "l")
		body := lp.Body
		a := g.ops(body, acc, g.r.Intn(6))
		a = body.Bin(ir.OpAdd, a, body.CallVirt("m", body.ALoad(arr, lp.I), a))
		body.Move(acc, g.ops(body, a, g.r.Intn(6)))
		body.Print(acc)
		body.Jump(lp.Latch)
		lp.After.Return(acc)
	case shapeTrapAfterCall:
		// t's first instruction reads a field of its argument, null in
		// the array's last slot.
		g.classes(leaf)
		tb := ir.NewFunc("t", 1)
		tc := tb.At(tb.EntryBlock())
		tc.Return(g.ops(tc, tc.GetField(0, g.base, "x"), g.r.Intn(6)))
		g.funcs = append(g.funcs, tb.M)
		arr, ln := g.objects(c, nil)
		lp := c.CountedLoop(ln, "l")
		body := lp.Body
		a := g.ops(body, acc, g.r.Intn(6))
		body.Move(acc, body.Bin(ir.OpAdd, a, body.Call(tb.M, body.ALoad(arr, lp.I))))
		body.Jump(lp.Latch)
		lp.After.Return(acc)
	case shapeTrapAfterReturn:
		// z(i) returns k-i, and the caller divides by it right after
		// the call: the division traps when i reaches k.
		zb := ir.NewFunc("z", 1)
		zc := zb.At(zb.EntryBlock())
		zc.Return(zc.Bin(ir.OpSub, zc.Const(int64(2+g.r.Intn(3))), 0))
		g.funcs = append(g.funcs, zb.M)
		lp := c.CountedLoop(c.Const(8), "l")
		body := lp.Body
		a := body.Bin(ir.OpAdd, g.ops(body, acc, g.r.Intn(6)), body.Call(mid, acc))
		a = body.Bin(ir.OpAdd, a, body.Bin(ir.OpDiv, body.Const(1000), body.Call(zb.M, lp.I)))
		body.Move(acc, a)
		body.Jump(lp.Latch)
		lp.After.Return(acc)
	case shapeYieldThreads:
		// Both threads run work, whose loop calls mid and a virtual m:
		// every callee entry carries a yieldpoint, so at quantum 1 the
		// threads rotate inside callees.
		g.classes(leaf)
		wb := ir.NewFunc("work", 1)
		wc := wb.At(wb.EntryBlock())
		warr, wln := g.objects(wc, g.subs[0])
		lp := wc.CountedLoop(wln, "w")
		body := lp.Body
		a := body.Bin(ir.OpAdd, 0, body.Call(mid, lp.I))
		a = body.Bin(ir.OpAdd, a, body.CallVirt("m", body.ALoad(warr, lp.I), a))
		body.Print(a)
		body.Move(0, a)
		body.Jump(lp.Latch)
		lp.After.Return(0)
		g.funcs = append(g.funcs, wb.M)
		h := c.Spawn(wb.M, acc)
		own := c.Call(wb.M, iters)
		c.Return(c.Bin(ir.OpAdd, own, c.Join(h)))
		cfg.Quantum = 1
	case shapeRecursion:
		// rec(d) recurses d levels with a call mid-block; main asks
		// for more than MaxStack.
		rb := ir.NewFunc("rec", 1)
		entry := rb.EntryBlock()
		down := rb.Block("down")
		bottom := rb.Block("bottom")
		ec := rb.At(entry)
		ec.Branch(ec.Bin(ir.OpCmpGT, 0, ec.Const(0)), down, bottom)
		dc := rb.At(down)
		a := g.ops(dc, 0, g.r.Intn(6))
		a = dc.Bin(ir.OpAdd, a, dc.Call(rb.M, dc.Bin(ir.OpSub, 0, dc.Const(1))))
		dc.Return(g.ops(dc, a, g.r.Intn(6)))
		rb.At(bottom).Return(0)
		g.funcs = append(g.funcs, rb.M)
		c.Return(c.Call(rb.M, c.Const(int64(callSweepMaxStack+g.r.Intn(20)))))
	}
	return g.program(mb.M), cfg
}

// wide builds a method whose middle block uses a register past the
// fused encoding's int16 range, so it runs per instruction, between
// two fused blocks that call fused code.
func (g *callGen) wide(leaf, mid *ir.Method) *ir.Method {
	const big = 0x8000
	b := ir.NewFunc("wide", 1)
	b.M.NumRegs = big + 1
	c := b.At(b.EntryBlock())
	a := c.Bin(ir.OpAdd, 0, c.Call(leaf, 0))
	w := b.Block("w")
	c.Jump(w)
	w.Append(ir.Instr{Op: ir.OpAdd, Dst: big, A: a, B: a})
	w.Append(ir.Instr{Op: ir.OpCall, Dst: a, Method: mid, Args: []ir.Reg{big}})
	w.Append(ir.Instr{Op: ir.OpXor, Dst: a, A: a, B: big})
	done := b.Block("done")
	w.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{done}})
	dc := b.At(done)
	dc.Return(dc.Bin(ir.OpAdd, a, dc.Call(leaf, a)))
	g.funcs = append(g.funcs, b.M)
	return b.M
}

// frameLog is the sweep's sparse observer: it declares EvEnter and
// EvExit plus a deadline every period cycles, logs every frame push and
// pop with its cycle, thread and depth, and records a wake, as
// wakeObserver does, at the first event at or after the deadline. The
// reference dispatcher delivers it every event; it acts on the same
// ones either way.
type frameLog struct {
	v      *vm.VM
	period uint64
	next   uint64
	log    [][4]uint64
}

func (o *frameLog) Events() vm.EventMask { return vm.EvEnter | vm.EvExit }
func (o *frameLog) NextWake() uint64     { return o.next }

func (o *frameLog) tick(kind uint64, t *vm.Thread) {
	now := o.v.Now()
	if kind != 0 {
		o.log = append(o.log, [4]uint64{kind, now, uint64(t.ID), uint64(t.Depth())})
	}
	if now >= o.next {
		o.log = append(o.log, [4]uint64{9, now, uint64(t.ID), o.v.Stats().Yields})
		o.next = (now/o.period + 1) * o.period
	}
}

func (o *frameLog) OnEnter(t *vm.Thread, _ *vm.Frame)                { o.tick(1, t) }
func (o *frameLog) OnExit(t *vm.Thread, _ *vm.Frame)                 { o.tick(2, t) }
func (o *frameLog) OnTransfer(*vm.Thread, *vm.Frame, *ir.Instr, int) {}
func (o *frameLog) OnCheck(t *vm.Thread, _ *vm.Frame, _ *ir.Instr, _ bool) {
	o.tick(0, t)
}
func (o *frameLog) OnProbe(t *vm.Thread, _ *vm.Frame, _ *ir.Probe) { o.tick(0, t) }
func (o *frameLog) OnYield(t *vm.Thread, _ *vm.Frame)              { o.tick(0, t) }

// eventLog is the sweep's all-events observer: no EventFilter, so the
// fast path delivers every event too, and it logs each one's class,
// cycle, thread and depth.
type eventLog struct {
	v   *vm.VM
	log [][4]uint64
}

func (o *eventLog) add(kind uint64, t *vm.Thread) {
	o.log = append(o.log, [4]uint64{kind, o.v.Now(), uint64(t.ID), uint64(t.Depth())})
}

func (o *eventLog) OnEnter(t *vm.Thread, _ *vm.Frame)                        { o.add(1, t) }
func (o *eventLog) OnExit(t *vm.Thread, _ *vm.Frame)                         { o.add(2, t) }
func (o *eventLog) OnTransfer(t *vm.Thread, _ *vm.Frame, _ *ir.Instr, _ int) { o.add(3, t) }
func (o *eventLog) OnCheck(t *vm.Thread, _ *vm.Frame, _ *ir.Instr, _ bool)   { o.add(4, t) }
func (o *eventLog) OnProbe(t *vm.Thread, _ *vm.Frame, _ *ir.Probe)           { o.add(5, t) }
func (o *eventLog) OnYield(t *vm.Thread, _ *vm.Frame)                        { o.add(6, t) }

// probeTap forwards every probe event to an instrumentation runtime
// after logging the probe, its value, the VM's cycle count and the
// frame's pc.
type probeTap struct {
	inner vm.ProbeHandler
	v     *vm.VM
	log   *[][4]uint64
}

func (h probeTap) HandleProbe(ev *vm.ProbeEvent) {
	*h.log = append(*h.log, [4]uint64{uint64(ev.Probe.ID), uint64(ev.Value), h.v.Now(), uint64(ev.Thread.Top().PC)})
	if h.inner != nil {
		h.inner.HandleProbe(ev)
	}
}

// sweepRun is everything one run of the sweep can observe.
type sweepRun struct {
	err      string
	res      *vm.Result
	stats    vm.Stats
	profiles []string
	probes   [][4]uint64
	events   [][4]uint64
	turns    []int
	fusion   vm.FusionStats
}

// callSweepRun compiles prog under variation fw/inst and runs it once.
func callSweepRun(t *testing.T, prog *ir.Program, base vm.Config, inst bool, fw *core.Options, timer bool, observer string, reference bool) sweepRun {
	t.Helper()
	opts := compile.Options{Framework: fw}
	if inst {
		opts.Instrumenters = []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}, &instr.ValueProfile{}}
	}
	res, err := compile.Compile(prog, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out sweepRun
	cfg := base
	cfg.Reference = reference
	cfg.Trigger = trigger.NewCounter(7)
	if timer {
		cfg.Trigger = trigger.NewTimer(211)
	}
	cfg.Sched = func(id int) { out.turns = append(out.turns, id) }
	taps := make([]vm.ProbeHandler, len(res.Handlers))
	cfg.Handlers = taps
	var fl *frameLog
	var el *eventLog
	switch observer {
	case "sparse":
		fl = &frameLog{period: 997, next: 997}
		cfg.Observer = fl
	case "all":
		el = &eventLog{}
		cfg.Observer = el
	}
	m := vm.New(res.Prog, cfg)
	for i, h := range res.Handlers {
		taps[i] = probeTap{inner: h, v: m, log: &out.probes}
	}
	if fl != nil {
		fl.v = m
	}
	if el != nil {
		el.v = m
	}
	out.res, err = m.Run()
	if err != nil {
		out.err = err.Error()
	}
	out.stats = m.Stats()
	out.fusion = m.FusionStats()
	for _, rt := range res.Runtimes {
		p := rt.Profile()
		out.profiles = append(out.profiles, fmt.Sprint(p.Name, p.Entries()))
	}
	switch {
	case fl != nil:
		out.events = fl.log
	case el != nil:
		out.events = el.log
	}
	return out
}

// requireSameRun fails unless the fast and reference runs agree on
// everything sweepRun records.
func requireSameRun(t *testing.T, label string, fast, ref sweepRun) {
	t.Helper()
	switch {
	case fast.err != ref.err:
		t.Fatalf("%s: errors differ:\n  fast:      %q\n  reference: %q", label, fast.err, ref.err)
	case fast.stats != ref.stats:
		t.Fatalf("%s: stats differ:\n  fast:      %+v\n  reference: %+v", label, fast.stats, ref.stats)
	case fast.err == "" && (fast.res.Return != ref.res.Return || !slices.Equal(fast.res.Output, ref.res.Output)):
		t.Fatalf("%s: results differ: return %d vs %d, output %v vs %v", label, fast.res.Return, ref.res.Return, fast.res.Output, ref.res.Output)
	case !slices.Equal(fast.profiles, ref.profiles):
		t.Fatalf("%s: profiles differ:\n  fast:      %v\n  reference: %v", label, fast.profiles, ref.profiles)
	case !slices.Equal(fast.probes, ref.probes):
		t.Fatalf("%s: probe events differ (%d vs %d)", label, len(fast.probes), len(ref.probes))
	case !slices.Equal(fast.events, ref.events):
		t.Fatalf("%s: observed events differ (%d vs %d)", label, len(fast.events), len(ref.events))
	case !slices.Equal(fast.turns, ref.turns):
		t.Fatalf("%s: scheduling turns differ (%d vs %d)", label, len(fast.turns), len(ref.turns))
	}
}

// TestCallBoundarySweep runs every callProgram family, two seeds each
// (one with -short), under {base, exhaustive, full, partial, nodup,
// full-yp} × {counter, timer} × observer {none, sparse, all events} on
// both dispatchers and requires identical runs. Each family must also
// show the behaviour it was built for on the unobserved fast path: the
// trap it aims at, rotations wherever yieldpoints remain (full-yp turns
// them into checks), and code that runs on the fused tier.
func TestCallBoundarySweep(t *testing.T) {
	variations := []struct {
		name string
		inst bool
		fw   *core.Options
	}{
		{"base", false, nil},
		{"exhaustive", true, nil},
		{"full", true, &core.Options{Variation: core.FullDuplication}},
		{"partial", true, &core.Options{Variation: core.PartialDuplication}},
		{"nodup", true, &core.Options{Variation: core.NoDuplication}},
		{"full-yp", true, &core.Options{Variation: core.FullDuplication, YieldpointOpt: true}},
	}
	wantErr := map[callShape]string{
		shapeNullReceiver:    "callvirt on null or classless receiver",
		shapeMissingMethod:   "no method m on class Other",
		shapeTrapAfterCall:   "getfield on null or non-object at t:",
		shapeTrapAfterReturn: "division by zero at main:",
		shapeRecursion:       fmt.Sprintf("stack overflow (depth %d)", callSweepMaxStack),
	}
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for shape := range numCallShapes {
		for s := range seeds {
			seed := uint64(shape+1)*0x9e3779b97f4a7c15 + uint64(s)*0xbf58476d1ce4e5b9
			t.Run(fmt.Sprintf("%s/seed%d", callShapeNames[shape], s), func(t *testing.T) {
				t.Parallel()
				prog, cfg := callProgram(shape, seed)
				if err := prog.Verify(ir.VerifyBase); err != nil {
					t.Fatalf("generated program invalid: %v", err)
				}
				for _, v := range variations {
					for _, timer := range []bool{false, true} {
						for _, observer := range []string{"none", "sparse", "all"} {
							label := fmt.Sprintf("%s/timer=%v/%s", v.name, timer, observer)
							fast := callSweepRun(t, prog, cfg, v.inst, v.fw, timer, observer, false)
							ref := callSweepRun(t, prog, cfg, v.inst, v.fw, timer, observer, true)
							requireSameRun(t, label, fast, ref)
							if observer != "none" {
								continue
							}
							if want := wantErr[shape]; want != "" && !strings.Contains(fast.err, want) {
								t.Fatalf("%s: error %q, want one containing %q", label, fast.err, want)
							} else if want == "" && fast.err != "" {
								t.Fatalf("%s: unexpected error %q", label, fast.err)
							}
							if shape == shapeYieldThreads && v.fw == nil && len(fast.turns) < 20 {
								t.Fatalf("%s: %d scheduling turns; the threads never rotated inside callees", label, len(fast.turns))
							}
							if fast.fusion.Instrs == 0 {
								t.Fatalf("%s: nothing ran fused: %+v", label, fast.fusion)
							}
						}
					}
				}
			})
		}
	}
}
