package vm

import (
	"slices"
	"strings"
	"testing"

	"instrsample/internal/ir"
)

// TestCostTableMatchesOpCost pins the fast path's cost-table invariant:
// for every representable opcode, the flattened table built by
// CostModel.table agrees with the opCost switch the reference dispatch
// still runs. If a new opcode gets a cost case, this fails until the
// table (rebuilt from opCost) and the switch agree again.
func TestCostTableMatchesOpCost(t *testing.T) {
	models := map[string]*CostModel{
		"default": DefaultCostModel(),
		"skewed": {
			Simple: 3, DivRem: 50, Branch: 7, FieldAccess: 11,
			ArrayAccess: 13, New: 170, NewArrayBase: 90, Call: 41,
			VirtExtra: 17, Return: 19, Spawn: 230, Join: 29,
			Yield: 31, Check: 37, Print: 43, ICacheMissPenalty: 47,
		},
	}
	for name, m := range models {
		tab := m.table()
		for op := 0; op < ir.NumOpcodes; op++ {
			want := m.opCost(&ir.Instr{Op: ir.Op(op)})
			if tab[op] != want {
				t.Errorf("%s: table[%s] = %d, opCost = %d", name, ir.Op(op), tab[op], want)
			}
		}
	}
}

// TestThreadQueue exercises the ring buffer directly: FIFO order across
// growth and wraparound, and nil-on-pop so the queue never pins threads.
func TestThreadQueue(t *testing.T) {
	var q threadQueue
	mk := func(id int) *Thread { return &Thread{ID: id} }

	if q.len() != 0 {
		t.Fatalf("fresh queue len %d", q.len())
	}
	// Interleave pushes and pops so head walks around the buffer several
	// times while the queue also grows past its initial capacity.
	next, expect := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			q.push(mk(next))
			next++
		}
		for i := 0; i < 2; i++ {
			if got := q.front().ID; got != expect {
				t.Fatalf("front = t%d, want t%d", got, expect)
			}
			if got := q.pop().ID; got != expect {
				t.Fatalf("pop = t%d, want t%d", got, expect)
			}
			expect++
		}
	}
	for q.len() > 0 {
		if got := q.pop().ID; got != expect {
			t.Fatalf("drain pop = t%d, want t%d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d threads, pushed %d", expect, next)
	}
	for i, p := range q.buf {
		if p != nil {
			t.Errorf("buf[%d] still pins a thread after drain", i)
		}
	}
}

// spawnArityProg builds a program whose main spawns worker with the wrong
// number of arguments, bypassing the builder (the IR verifier catches
// this statically; the VM must catch hand-assembled code at runtime too).
func spawnArityProg() *ir.Program {
	w := ir.NewFunc("worker", 2)
	{
		c := w.At(w.EntryBlock())
		c.Return(c.Bin(ir.OpAdd, 0, 1))
	}
	mb := ir.NewFunc("main", 0)
	{
		c := mb.At(mb.EntryBlock())
		one := c.Const(1)
		dst := mb.FreshReg()
		c.Blk().Append(ir.Instr{Op: ir.OpSpawn, Dst: dst, Method: w.M, Args: []ir.Reg{one}})
		c.Return(c.Join(dst))
	}
	p := &ir.Program{Name: "t", Funcs: []*ir.Method{w.M, mb.M}, Main: mb.M}
	p.Seal()
	return p
}

// TestSpawnArityTraps verifies the spawn arity check: a spawn whose
// argument count disagrees with the target's NumParams traps instead of
// silently zero-filling (or truncating) the new thread's parameters.
// Both dispatchers must produce the identical trap.
func TestSpawnArityTraps(t *testing.T) {
	var errs [2]error
	for i, ref := range []bool{false, true} {
		_, err := New(spawnArityProg(), Config{Reference: ref}).Run()
		if err == nil {
			t.Fatalf("reference=%v: wrong-arity spawn did not trap", ref)
		}
		if !strings.Contains(err.Error(), "spawn worker with 1 args, wants 2") {
			t.Fatalf("reference=%v: unexpected trap %q", ref, err)
		}
		errs[i] = err
	}
	if errs[0].Error() != errs[1].Error() {
		t.Fatalf("dispatchers disagree:\n  fast: %v\n  ref:  %v", errs[0], errs[1])
	}
}

// fibProg builds a deliberately call-dense program: naive fib(n),
// two calls per node, at most n+1 frames deep.
func fibProg(n int64) *ir.Program {
	fb := ir.NewFunc("fib", 1)
	{
		c := fb.At(fb.EntryBlock())
		two := c.Const(2)
		cond := c.Bin(ir.OpCmpLT, 0, two)
		thenB := fb.Block("")
		elseB := fb.Block("")
		c.Branch(cond, thenB, elseB)
		tc := fb.At(thenB)
		tc.Return(0)
		ec := fb.At(elseB)
		one := ec.Const(1)
		n1 := ec.Bin(ir.OpSub, 0, one)
		n2 := ec.Bin(ir.OpSub, n1, one)
		a := ec.Call(fb.M, n1)
		b := ec.Call(fb.M, n2)
		ec.Return(ec.Bin(ir.OpAdd, a, b))
	}
	mb := ir.NewFunc("main", 0)
	{
		c := mb.At(mb.EntryBlock())
		c.Return(c.Call(fb.M, c.Const(n)))
	}
	p := &ir.Program{Name: "t", Funcs: []*ir.Method{fb.M, mb.M}, Main: mb.M}
	p.Seal()
	return p
}

// frameCensus is an observer that records, per thread, every distinct
// frame pushed, and the deepest stack.
type frameCensus struct {
	nopObserver
	frames map[*Frame]int // frame -> the thread that pushed it
	shared int            // frames pushed by a second thread
	peak   int
}

func (c *frameCensus) OnEnter(t *Thread, f *Frame) {
	if c.frames == nil {
		c.frames = make(map[*Frame]int)
	}
	if id, ok := c.frames[f]; ok && id != t.ID {
		c.shared++
	}
	c.frames[f] = t.ID
	c.peak = max(c.peak, len(t.Frames))
}

// TestThreadStackReusesFrames checks that frames stay on their
// thread's stack: a push reuses the frame last popped at its depth, so
// a run makes one frame per depth it reaches, however many calls it
// makes. fib(18) enters 8,362 methods and fib(10) 178; the larger run
// may make no more frames than the smaller plus the difference in
// their peak depths, and allocate little more: a frame, its
// registers and a stack growth per extra level at most.
func TestThreadStackReusesFrames(t *testing.T) {
	census := func(n int64) (*frameCensus, uint64) {
		c := &frameCensus{}
		out, err := New(fibProg(n), Config{Observer: c}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return c, out.Stats.MethodEntries
	}
	small, smallCalls := census(10)
	large, largeCalls := census(18)
	if smallCalls != 178 || largeCalls != 8362 {
		t.Fatalf("method entries %d and %d, want 178 and 8362", smallCalls, largeCalls)
	}
	if small.peak != 11 || large.peak != 19 {
		t.Fatalf("peak depths %d and %d, want 11 and 19", small.peak, large.peak)
	}
	if got, limit := len(large.frames), len(small.frames)+large.peak-small.peak; got > limit {
		t.Fatalf("fib(18) made %d frames, fib(10) %d: want at most %d", got, len(small.frames), limit)
	}
	allocs := func(n int64) float64 {
		p := fibProg(n)
		return testing.AllocsPerRun(5, func() {
			if _, err := New(p, Config{}).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a10, a18 := allocs(10), allocs(18); a18-a10 > 3*float64(large.peak-small.peak) {
		t.Fatalf("fib(18) allocates %.0f times, fib(10) %.0f: calls allocate", a18, a10)
	}
}

// TestPooledRegistersZeroed guards the zero-at-push rule: a reused
// frame must not leak the previous occupant's register or scratch
// values, because IR semantics give every unwritten register the value
// 0/null. Its threads leg runs two threads that push and pop at equal
// depths, rotating at every yieldpoint: each thread's frames stay its
// own, so no frame reads another thread's registers.
func TestPooledRegistersZeroed(t *testing.T) {
	// dirty() fills its registers with junk; clean() then reads an
	// unwritten register, which must still be 0.
	dirty := ir.NewFunc("dirty", 0)
	{
		c := dirty.At(dirty.EntryBlock())
		acc := c.Const(0x7eadbeef)
		for i := 0; i < 8; i++ {
			acc = c.Bin(ir.OpAdd, acc, acc)
		}
		c.Return(acc)
	}
	clean := ir.NewFunc("clean", 0)
	{
		c := clean.At(clean.EntryBlock())
		unwritten := clean.FreshReg()
		c.Return(unwritten)
	}
	// dirty's frame must be at least as wide as clean's, so the stack
	// serves clean out of dirty's popped (junk-filled) registers.
	if dirty.M.NumRegs < clean.M.NumRegs {
		t.Fatalf("test setup: dirty %d regs < clean %d regs; reuse path not exercised",
			dirty.M.NumRegs, clean.M.NumRegs)
	}
	t.Run("one-thread", func(t *testing.T) {
		mb := ir.NewFunc("main", 0)
		{
			c := mb.At(mb.EntryBlock())
			c.Call(dirty.M)
			c.Return(c.Call(clean.M))
		}
		p := &ir.Program{Name: "t", Funcs: []*ir.Method{dirty.M, clean.M, mb.M}, Main: mb.M}
		p.Seal()
		out, err := New(p, Config{}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if out.Return != 0 {
			t.Fatalf("unwritten register in reused frame reads %#x, want 0", out.Return)
		}
	})
	t.Run("threads", func(t *testing.T) {
		// worker: 20 times { yield; dirty(); yield; sum += clean() }.
		worker := ir.NewFunc("worker", 0)
		{
			c := worker.At(worker.EntryBlock())
			sum := c.Const(0)
			lp := c.CountedLoop(c.Const(20), "l")
			lp.Body.Blk().Append(ir.Instr{Op: ir.OpYield})
			lp.Body.Call(dirty.M)
			lp.Body.Blk().Append(ir.Instr{Op: ir.OpYield})
			lp.Body.BinTo(ir.OpAdd, sum, sum, lp.Body.Call(clean.M))
			lp.Body.Jump(lp.Latch)
			lp.After.Return(sum)
		}
		mb := ir.NewFunc("main", 0)
		{
			c := mb.At(mb.EntryBlock())
			h1 := c.Spawn(worker.M)
			h2 := c.Spawn(worker.M)
			c.Return(c.Bin(ir.OpAdd, c.Join(h1), c.Join(h2)))
		}
		p := &ir.Program{Name: "t", Funcs: []*ir.Method{dirty.M, clean.M, worker.M, mb.M}, Main: mb.M}
		p.Seal()
		var want *Result
		for _, ref := range []bool{true, false} {
			census := &frameCensus{}
			out, err := New(p, Config{Quantum: 1, Reference: ref, Observer: census}).Run()
			if err != nil {
				t.Fatalf("reference=%v: %v", ref, err)
			}
			if out.Return != 0 {
				t.Fatalf("reference=%v: unwritten registers read %#x, want 0", ref, out.Return)
			}
			if ref {
				want = out
				continue
			}
			if out.Stats != want.Stats {
				t.Fatalf("fast path stats %+v, reference %+v", out.Stats, want.Stats)
			}
			if census.shared != 0 {
				t.Fatalf("%d frame pushes reused a frame another thread had pushed", census.shared)
			}
			if len(census.frames) != 5 {
				t.Fatalf("%d frames, want 5: main's, and a root and one callee frame per worker", len(census.frames))
			}
		}
	})
}

// frameClearProg builds main calling dirty(), which leaves junk in
// every register of its pooled frame, then maybe(0) and maybe(1):
//
//	maybe(p): entry: y = 7; br p [set, join]
//	          set:   x = 5; jmp join
//	          join:  return x*1000 + y
//
// x is read on the path that skips its write, so it is live at maybe's
// entry and a recycled frame must zero it; y is written before every
// read. main returns maybe(0)*1_000_000 + maybe(1), 7_005_007 when x
// reads 0 on the first call. mutate, when set, runs on the sealed
// program before it is returned.
func frameClearProg(mutate func(dirty, maybe, main *ir.Method, p *ir.Program)) (*ir.Program, ir.Reg) {
	dirty := ir.NewFunc("dirty", 0)
	{
		c := dirty.At(dirty.EntryBlock())
		acc := c.Const(0x7eadbeef)
		for i := 0; i < 12; i++ {
			acc = c.Bin(ir.OpAdd, acc, acc)
		}
		c.Return(acc)
	}
	maybe := ir.NewFunc("maybe", 1)
	x := maybe.FreshReg()
	{
		c := maybe.At(maybe.EntryBlock())
		y := c.Const(7)
		set := maybe.Block("set")
		join := maybe.Block("join")
		c.Branch(0, set, join)
		maybe.At(set).ConstTo(x, 5)
		maybe.At(set).Jump(join)
		jc := maybe.At(join)
		jc.Return(jc.Bin(ir.OpAdd, jc.Bin(ir.OpMul, x, jc.Const(1000)), y))
	}
	mb := ir.NewFunc("main", 0)
	{
		c := mb.At(mb.EntryBlock())
		c.Call(dirty.M)
		first := c.Call(maybe.M, c.Const(0))
		c.Call(dirty.M)
		second := c.Call(maybe.M, c.Const(1))
		c.Return(c.Bin(ir.OpAdd, c.Bin(ir.OpMul, first, c.Const(1_000_000)), second))
	}
	if dirty.M.NumRegs < maybe.M.NumRegs {
		panic("frameClearProg: dirty's frame must be at least as wide as maybe's")
	}
	p := &ir.Program{Name: "frameclear", Funcs: []*ir.Method{dirty.M, maybe.M, mb.M}, Main: mb.M}
	p.Seal()
	if mutate != nil {
		mutate(dirty.M, maybe.M, mb.M, p)
	}
	return p, x
}

// TestFrameClearLiveRegisters pins the frame-clear rule: a recycled
// frame zeroes exactly the non-parameter registers live at its method's
// entry, so a register read on only one path still reads 0 after
// another method dirtied the pooled frame, on both dispatchers. When
// the Method.ID-indexed table cannot be trusted (colliding or
// out-of-range IDs) the VM zeroes every register instead, with the same
// results, and so it does for a method the table has no row for.
func TestFrameClearLiveRegisters(t *testing.T) {
	const want = 7_005_007
	cases := []struct {
		name   string
		mutate func(dirty, maybe, main *ir.Method, p *ir.Program)
		table  bool // whether the VM keeps its frame-clear table
	}{
		{"live-set", nil, true},
		{"colliding-ids", func(dirty, maybe, _ *ir.Method, _ *ir.Program) { maybe.ID = dirty.ID }, false},
		{"out-of-range-id", func(_, maybe, _ *ir.Method, p *ir.Program) { maybe.ID = p.NumMethods() }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, ref := range []bool{false, true} {
				p, x := frameClearProg(tc.mutate)
				v := New(p, Config{Reference: ref})
				out, err := v.Run()
				if err != nil {
					t.Fatalf("reference=%v: %v", ref, err)
				}
				if out.Return != want {
					t.Fatalf("reference=%v: returned %d, want %d (x must read 0 on the path that skips its write)", ref, out.Return, want)
				}
				if ref {
					continue
				}
				if (v.entryLive != nil) != tc.table {
					t.Fatalf("frame-clear table kept = %v, want %v", v.entryLive != nil, tc.table)
				}
				if !tc.table {
					continue
				}
				for _, row := range v.entryLive {
					switch {
					case row.m == nil:
						t.Fatalf("method without a frame-clear row")
					case row.m.Name == "maybe":
						if len(row.regs) != 1 || row.regs[0] != x {
							t.Fatalf("maybe clears %v, want only x = r%d", row.regs, x)
						}
					case len(row.regs) != 0:
						t.Fatalf("%s clears %v, want nothing: every register is written before it is read", row.m.Name, row.regs)
					}
				}
				// A method the program does not list may carry any ID,
				// here main's: it must not borrow main's row.
				unlisted := ir.NewFunc("unlisted", 0)
				unlisted.M.NumRegs = 4
				unlisted.M.ID = p.Main.ID
				junk := &Frame{Regs: []Value{{I: 1}, {I: 2}, {I: 3}, {I: 4}}}
				th := &Thread{Frames: []*Frame{junk}[:0]}
				if f := v.pushFrame(th, unlisted.M, ir.NoReg, nil, -1); f != junk || slices.ContainsFunc(f.Regs, func(r Value) bool { return r != Value{} }) {
					t.Fatalf("recycled frame for an unlisted method kept registers %v", f.Regs)
				}
			}
		})
	}
}

// TestBudgetTrapBothDispatchers checks that cycle-budget exhaustion traps
// under both dispatchers with the same reason. The fast path may trap a
// few instructions later (the check is hoisted to block boundaries), so
// only the reason text is compared, not the location.
func TestBudgetTrapBothDispatchers(t *testing.T) {
	build := func() *ir.Program {
		b := ir.NewFunc("main", 0)
		c := b.At(b.EntryBlock())
		n := c.Const(1 << 40)
		lp := c.CountedLoop(n, "l")
		lp.Body.Jump(lp.Latch)
		lp.After.Return(lp.I)
		p := &ir.Program{Name: "t", Funcs: []*ir.Method{b.M}, Main: b.M}
		p.Seal()
		return p
	}
	for _, ref := range []bool{false, true} {
		_, err := New(build(), Config{Reference: ref, MaxCycles: 10000}).Run()
		if err == nil || !strings.Contains(err.Error(), "cycle budget exhausted (10000)") {
			t.Fatalf("reference=%v: expected budget trap, got %v", ref, err)
		}
	}
}

// TestUnlistedCallee: main calls a method the program does not list.
// The callee was never sealed, so its entry block's GID is 0, the GID
// of main's entry block. The verifier rejects the program; unverified,
// the fast path builds no fused table and must match the reference
// instead of running main's stream in the callee's frame.
func TestUnlistedCallee(t *testing.T) {
	sq := ir.NewFunc("square", 1)
	{
		c := sq.At(sq.EntryBlock())
		c.Return(c.Bin(ir.OpMul, 0, 0))
	}
	mb := ir.NewFunc("main", 0)
	{
		c := mb.At(mb.EntryBlock())
		c.Return(c.Call(sq.M, c.Const(7)))
	}
	p := &ir.Program{Name: "unlisted", Funcs: []*ir.Method{mb.M}, Main: mb.M}
	p.Seal()
	if sq.M.Entry().GID != mb.M.Entry().GID {
		t.Fatalf("callee entry GID %d, want main's %d", sq.M.Entry().GID, mb.M.Entry().GID)
	}
	if err := p.Verify(ir.VerifyBase); err == nil || !strings.Contains(err.Error(), "square is not a method of the program") {
		t.Fatalf("Verify = %v, want the unlisted callee rejected", err)
	}
	var want *Result
	for _, ref := range []bool{true, false} {
		v := New(p, Config{Reference: ref})
		got, err := v.Run()
		if err != nil {
			t.Fatalf("reference=%v: %v", ref, err)
		}
		if got.Return != 49 {
			t.Fatalf("reference=%v: returned %d, want 49", ref, got.Return)
		}
		if ref {
			want = got
			continue
		}
		if got.Stats != want.Stats {
			t.Fatalf("fast path stats %+v, reference %+v", got.Stats, want.Stats)
		}
		if len(v.fuse) != 0 {
			t.Fatalf("fused table of %d entries, want none", len(v.fuse))
		}
	}
}

// TestUnlistedClass: main allocates an object of a class the program
// does not list and calls a method on it virtually. The class was
// sealed in another program, where its method's entry block got GID 1,
// the GID of main's second block here, a block that calls. The verifier
// rejects the program; unverified, the fast path must not run main's
// block in the method's frame (it would push a frame for the method's
// constant as if it were a call) but run the whole program on the
// reference dispatcher, returning 1000 + 7.
func TestUnlistedClass(t *testing.T) {
	cl := &ir.Class{Name: "C"}
	cm := ir.NewMethod(cl, "m", 1)
	{
		c := cm.At(cm.EntryBlock())
		c.Return(c.Const(1000))
	}
	other := ir.NewFunc("other", 0)
	other.At(other.EntryBlock()).Return(ir.NoReg)
	(&ir.Program{Name: "other", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{other.M}, Main: other.M}).Seal()
	if cm.M.Entry().GID != 1 {
		t.Fatalf("C.m's entry GID %d, want 1", cm.M.Entry().GID)
	}

	seven := ir.NewFunc("seven", 0)
	{
		c := seven.At(seven.EntryBlock())
		c.Return(c.Const(7))
	}
	mb := ir.NewFunc("main", 0)
	{
		c := mb.At(mb.EntryBlock())
		r := c.CallVirt("m", c.New(cl))
		next := mb.Block("next")
		c.Jump(next)
		nc := mb.At(next)
		nc.Return(nc.Bin(ir.OpAdd, r, nc.Call(seven.M)))
	}
	p := &ir.Program{Name: "unlisted-class", Funcs: []*ir.Method{mb.M, seven.M}, Main: mb.M}
	p.Seal()
	var want *Result
	for _, ref := range []bool{true, false} {
		v := New(p, Config{Reference: ref})
		got, err := v.Run()
		if err != nil {
			t.Fatalf("reference=%v: %v", ref, err)
		}
		if got.Return != 1007 {
			t.Fatalf("reference=%v: returned %d, want 1007", ref, got.Return)
		}
		if ref {
			want = got
			continue
		}
		if got.Stats != want.Stats {
			t.Fatalf("fast path stats %+v, reference %+v", got.Stats, want.Stats)
		}
		if fs := v.FusionStats(); fs.FusedBlocks != 0 || fs.Instrs != 0 {
			t.Fatalf("the program ran fused: %+v", fs)
		}
	}
	if err := p.Verify(ir.VerifyBase); err == nil || !strings.Contains(err.Error(), "class C is not a class of the program") {
		t.Fatalf("Verify = %v, want the unlisted class rejected", err)
	}
}

// TestUnlistedBranchTarget: main's entry jumps to a block its method
// does not list. The verifier rejects the program; unverified, both
// dispatchers must run the target's own instructions in main's frame.
// A stray block, never sealed, has main's entry's GID: the fast path
// must not chain into main's entry stream again (a loop until the cycle
// budget) but run the whole program on the reference dispatcher. A
// block of another method is listed, so the streams run it, and the
// frame-clear table must give main no row instead of panicking in
// liveness over a CFG that leaves the method.
func TestUnlistedBranchTarget(t *testing.T) {
	for _, stray := range []bool{true, false} {
		mb := ir.NewFunc("main", 0)
		mb.M.NumRegs = 2
		ob := ir.NewFunc("other", 0)
		var target *ir.Block
		if stray {
			target = mb.Block("stray")
		} else {
			target = ob.EntryBlock()
		}
		c := mb.At(target)
		c.Return(c.Const(5))
		mb.At(mb.EntryBlock()).Jump(target)
		mb.M.Blocks = mb.M.Blocks[:1]
		if !stray {
			mb.M.Blocks[0].Instrs = slices.Insert(mb.M.Blocks[0].Instrs, 0, ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 3})
		}
		p := &ir.Program{Name: "unlisted-target", Funcs: []*ir.Method{mb.M, ob.M}, Main: mb.M}
		p.Seal()
		if stray && target.GID != mb.M.Entry().GID {
			t.Fatalf("stray GID %d, want main's entry's %d", target.GID, mb.M.Entry().GID)
		}
		if err := p.Verify(ir.VerifyBase); err == nil || !strings.Contains(err.Error(), "outside method") {
			t.Fatalf("stray=%v: Verify = %v, want the target rejected", stray, err)
		}
		var want Stats
		for _, ref := range []bool{true, false} {
			v := New(p, Config{Reference: ref, MaxCycles: 1 << 16})
			got, err := v.Run()
			if err != nil || got.Return != 5 {
				t.Fatalf("stray=%v reference=%v: returned %v, %v; want 5", stray, ref, got, err)
			}
			if ref {
				want = got.Stats
				continue
			}
			if got.Stats != want {
				t.Fatalf("stray=%v: fast path stats %+v, reference %+v", stray, got.Stats, want)
			}
			if fs := v.FusionStats(); (fs.Instrs == 0) != stray {
				t.Fatalf("stray=%v: fused instructions %d", stray, fs.Instrs)
			}
		}
	}
}

// TestSlotTableGuard: the slot table answers a virtual call only for
// the class its row was built for. A class whose ID another program's
// Seal changed after the table was built, to another class's row or
// past the table, resolves through Class.Lookup, and a selector the
// class lacks reports no method.
func TestSlotTableGuard(t *testing.T) {
	a := &ir.Class{Name: "A"}
	b := &ir.Class{Name: "B", Super: a}
	for _, cl := range []*ir.Class{a, b} {
		m := ir.NewMethod(cl, "f", 1)
		m.At(m.EntryBlock()).Return(m.At(m.EntryBlock()).Const(int64(len(cl.Name))))
	}
	mb := ir.NewFunc("main", 0)
	{
		c := mb.At(mb.EntryBlock())
		o := c.New(b)
		c.Return(c.Bin(ir.OpAdd, c.CallVirt("f", o), c.CallVirt("g", c.New(a))))
	}
	p := &ir.Program{Name: "guard", Classes: []*ir.Class{a, b}, Funcs: []*ir.Method{mb.M}, Main: mb.M}
	p.Seal()
	v := New(p, Config{})
	if _, err := v.Run(); err == nil || !strings.Contains(err.Error(), "no method g on class A") {
		t.Fatalf("Run = %v, want the missing-method trap", err)
	}
	if v.nsel != 2 || len(v.slots) != 2*2 {
		t.Fatalf("table of %d selectors and %d slots, want 2 and 4", v.nsel, len(v.slots))
	}
	bf := b.Methods["f"]
	for _, id := range []int{1, 0, 5, -1} {
		b.ID = id
		if m, ok := v.virtual(b, 0, "f"); !ok || m != bf {
			t.Fatalf("B at ID %d resolves f to %v, want B.f", id, m)
		}
		if m, ok := v.virtual(b, 1, "g"); ok {
			t.Fatalf("B at ID %d resolves g to %v, want none", id, m)
		}
	}
}
