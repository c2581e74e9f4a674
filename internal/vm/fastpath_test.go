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

// callHeavyProg builds a deliberately call-dense program: fib(18) by
// naive double recursion.
func callHeavyProg() *ir.Program {
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
		n := c.Const(18)
		c.Return(c.Call(fb.M, n))
	}
	p := &ir.Program{Name: "t", Funcs: []*ir.Method{fb.M, mb.M}, Main: mb.M}
	p.Seal()
	return p
}

// TestFramePoolRecycles verifies the tentpole's allocation win: on a
// call-dense program the pooled fast path allocates a small constant
// number of frames (bounded by peak stack depth), while the reference
// dispatch allocates per call.
func TestFramePoolRecycles(t *testing.T) {
	p := callHeavyProg()
	out, err := New(p, Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Return != 2584 { // fib(18)
		t.Fatalf("fib(18) = %d, want 2584", out.Return)
	}
	calls := out.Stats.MethodEntries

	v := New(p, Config{})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	// After the run every frame has been popped back into the pool; the
	// pool must hold far fewer frames than the program made calls (it is
	// bounded by the peak call depth, ~20 here).
	if got := uint64(len(v.freeFrames)); got*100 > calls {
		t.Errorf("pool holds %d frames after %d calls; recycling broken", got, calls)
	}
	if len(v.freeFrames) == 0 {
		t.Error("pool empty after run; frames were never released")
	}
}

// TestPooledRegistersZeroed guards the zero-at-acquire rule: a reused
// frame must not leak the previous occupant's register or scratch values,
// because IR semantics give every unwritten register the value 0/null.
func TestPooledRegistersZeroed(t *testing.T) {
	// dirty() fills its registers with junk; probe() then reads an
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
	// dirty's frame must be at least as wide as clean's, so the pool
	// serves clean out of dirty's recycled (junk-filled) registers.
	if dirty.M.NumRegs < clean.M.NumRegs {
		t.Fatalf("test setup: dirty %d regs < clean %d regs; reuse path not exercised",
			dirty.M.NumRegs, clean.M.NumRegs)
	}
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
		t.Fatalf("unwritten register in pooled frame reads %#x, want 0", out.Return)
	}
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
				v.freeFrames = append(v.freeFrames, junk)
				if f := v.acquireFrame(unlisted.M, ir.NoReg, nil, -1); f != junk || slices.ContainsFunc(f.Regs, func(r Value) bool { return r != Value{} }) {
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
