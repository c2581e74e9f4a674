package compile

import (
	"slices"
	"strings"
	"testing"

	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

func run(t *testing.T, p *ir.Program, opts Options, trig trigger.Trigger) (*vm.Result, *Result) {
	t.Helper()
	res, err := Compile(p, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := vm.New(res.Prog, vm.Config{Trigger: trig, Handlers: res.Handlers, MaxCycles: 1 << 33}).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out, res
}

func TestYieldpointPlacement(t *testing.T) {
	// A loop with a conditional backedge: the yieldpoint must go on a
	// trampoline so it only executes when the backedge is taken.
	b := ir.NewFunc("main", 0)
	c := b.At(b.EntryBlock())
	i := c.Const(0)
	head := b.Block("head")
	exit := b.Block("exit")
	hc := c.Jump(head)
	one := hc.Const(1)
	hc.BinTo(ir.OpAdd, i, i, one)
	ten := hc.Const(10)
	cond := hc.Bin(ir.OpCmpLT, i, ten)
	hc.Branch(cond, head, exit) // conditional backedge head->head
	b.At(exit).Return(i)
	p := &ir.Program{Name: "t", Funcs: []*ir.Method{b.M}, Main: b.M}
	p.Seal()

	out, _ := run(t, p, Options{}, nil)
	// 1 entry + 9 backedge traversals.
	if out.Stats.Yields != 10 {
		t.Errorf("yields %d, want 10", out.Stats.Yields)
	}
	if out.Stats.Backedges != 9 {
		t.Errorf("backedges %d, want 9", out.Stats.Backedges)
	}
	if out.Stats.Yields != out.Stats.MethodEntries+out.Stats.Backedges {
		t.Errorf("yieldpoints must sit exactly on entries+backedges")
	}
}

func TestLayoutPlacesDuplicatedCodeAfterChecking(t *testing.T) {
	prog := ir.RandomProgram(11, ir.RandomProgramConfig{})
	res, err := Compile(prog, Options{
		Instrumenters: []instr.Instrumenter{&instr.FieldAccess{}, &instr.CallEdge{}},
		Framework:     &core.Options{Variation: core.FullDuplication},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DuplicatedCodeSize == 0 {
		t.Fatal("no duplicated code measured")
	}
	total := 0
	for _, m := range res.Prog.Methods() {
		maxChecking, minDup := -1, 1<<60
		for _, b := range m.Blocks {
			if b.Size == 0 {
				t.Fatalf("%s %s: layout missed a block", m.FullName(), b.Name())
			}
			if b.Kind == ir.KindDuplicated {
				if b.Addr < minDup {
					minDup = b.Addr
				}
			} else if b.Addr > maxChecking {
				maxChecking = b.Addr
			}
		}
		if minDup != 1<<60 && maxChecking > minDup {
			t.Errorf("%s: duplicated code (min addr %d) not after checking code (max addr %d)",
				m.FullName(), minDup, maxChecking)
		}
		total += m.CodeSize
	}
	if total != res.CodeSize {
		t.Errorf("method sizes sum to %d, program says %d", total, res.CodeSize)
	}
	if res.CheckingCodeSize+res.DuplicatedCodeSize != res.CodeSize {
		t.Error("checking+duplicated != total")
	}
}

func TestChecksOnlyConfiguration(t *testing.T) {
	prog := ir.RandomProgram(5, ir.RandomProgramConfig{})
	base, _ := run(t, prog, Options{}, nil)
	be, beRes := run(t, prog, Options{ChecksOnly: &core.ChecksOnly{Backedges: true}}, trigger.Never{})
	me, _ := run(t, prog, Options{ChecksOnly: &core.ChecksOnly{Entries: true}}, trigger.Never{})
	if beRes.FrameworkStats.ChecksInserted == 0 {
		t.Fatal("no checks inserted")
	}
	if be.Stats.Checks != base.Stats.Backedges {
		t.Errorf("backedge checks executed %d, want %d", be.Stats.Checks, base.Stats.Backedges)
	}
	if me.Stats.Checks != base.Stats.MethodEntries {
		t.Errorf("entry checks executed %d, want %d", me.Stats.Checks, base.Stats.MethodEntries)
	}
	// Semantics unchanged, overhead strictly positive.
	if be.Return != base.Return || me.Return != base.Return {
		t.Error("checks-only changed program result")
	}
	if be.Stats.Cycles <= base.Stats.Cycles || me.Stats.Cycles <= base.Stats.Cycles {
		t.Error("checks cost nothing?")
	}
}

func TestChecksOnlyExclusivity(t *testing.T) {
	prog := ir.RandomProgram(5, ir.RandomProgramConfig{})
	_, err := Compile(prog, Options{
		ChecksOnly: &core.ChecksOnly{Entries: true},
		Framework:  &core.Options{Variation: core.FullDuplication},
	})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("expected exclusivity error, got %v", err)
	}
	_, err = Compile(prog, Options{
		ChecksOnly:    &core.ChecksOnly{Entries: true},
		Instrumenters: []instr.Instrumenter{&instr.CallEdge{}},
	})
	if err == nil {
		t.Error("ChecksOnly+instrumentation accepted")
	}
}

// TestCompileRejectsUnlistedBranchTarget compiles the two programs of
// vm's TestUnlistedBranchTarget, whose main jumps to a block it does
// not list: a stray block of its own, or another method's entry. The
// optimizer's liveness skips such a successor instead of panicking, so
// Compile reaches verification and returns its error.
func TestCompileRejectsUnlistedBranchTarget(t *testing.T) {
	for _, stray := range []bool{true, false} {
		mb := ir.NewFunc("main", 0)
		mb.M.NumRegs = 2
		ob := ir.NewFunc("other", 0)
		target := ob.EntryBlock()
		if stray {
			target = mb.Block("stray")
		}
		c := mb.At(target)
		c.Return(c.Const(5))
		mb.At(mb.EntryBlock()).Jump(target)
		mb.M.Blocks = mb.M.Blocks[:1]
		if !stray {
			mb.M.Blocks[0].Instrs = slices.Insert(mb.M.Blocks[0].Instrs, 0, ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 3})
		}
		p := &ir.Program{Name: "unlisted-target", Funcs: []*ir.Method{mb.M, ob.M}, Main: mb.M}
		for _, opts := range []Options{{}, {
			Instrumenters: []instr.Instrumenter{&instr.CallEdge{}},
			Framework:     &core.Options{Variation: core.FullDuplication},
		}} {
			if _, err := Compile(p, opts); err == nil || !strings.Contains(err.Error(), "outside method") {
				t.Errorf("stray=%v framework=%v: Compile = %v, want the target rejected", stray, opts.Framework != nil, err)
			}
		}
	}
}

func TestCompileDoesNotMutateSource(t *testing.T) {
	prog := ir.RandomProgram(9, ir.RandomProgramConfig{})
	before := prog.FmtStats()
	if _, err := Compile(prog, Options{
		Instrumenters: []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}},
		Framework:     &core.Options{Variation: core.FullDuplication},
	}); err != nil {
		t.Fatal(err)
	}
	if prog.FmtStats() != before {
		t.Errorf("source program mutated:\n before %s\n after  %s", before, prog.FmtStats())
	}
	for _, m := range prog.Methods() {
		if m.Transformed != "" {
			t.Errorf("source method %s marked transformed", m.FullName())
		}
		for _, b := range m.Blocks {
			if b.HasProbe() {
				t.Errorf("source method %s gained probes", m.FullName())
			}
		}
	}
}

// --- optimizer tests ---

func optRun(t *testing.T, p *ir.Program, optimize bool) *vm.Result {
	t.Helper()
	out, _ := run(t, p, Options{NoOptimize: !optimize}, nil)
	return out
}

func TestOptimizeConstantFolding(t *testing.T) {
	b := ir.NewFunc("main", 0)
	c := b.At(b.EntryBlock())
	x := c.Const(6)
	y := c.Const(7)
	z := c.Bin(ir.OpMul, x, y)
	w := c.Bin(ir.OpAdd, z, c.Const(0))
	c.Return(w)
	p := &ir.Program{Name: "t", Funcs: []*ir.Method{b.M}, Main: b.M}
	p.Seal()
	q := ir.CloneProgram(p)
	n := Optimize(q.Main)
	if n == 0 {
		t.Fatal("nothing folded")
	}
	// The multiply must now be a constant.
	folded := false
	for _, blk := range q.Main.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == ir.OpConst && blk.Instrs[i].Imm == 42 {
				folded = true
			}
			if blk.Instrs[i].Op == ir.OpMul {
				t.Error("multiply survived folding")
			}
		}
	}
	if !folded {
		t.Error("42 not materialized")
	}
}

func TestOptimizePreservesDivTrap(t *testing.T) {
	// const 1/0 must NOT fold into anything: the trap is observable.
	b := ir.NewFunc("main", 0)
	c := b.At(b.EntryBlock())
	x := c.Const(1)
	z := c.Const(0)
	c.Return(c.Bin(ir.OpDiv, x, z))
	p := &ir.Program{Name: "t", Funcs: []*ir.Method{b.M}, Main: b.M}
	p.Seal()
	res, err := Compile(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.New(res.Prog, vm.Config{}).Run(); err == nil {
		t.Fatal("optimizer folded away a division trap")
	}
}

func TestOptimizeDCEKeepsSideEffects(t *testing.T) {
	b := ir.NewFunc("main", 0)
	c := b.At(b.EntryBlock())
	dead := c.Bin(ir.OpAdd, c.Const(1), c.Const(2)) // result unused
	_ = dead
	live := c.Const(5)
	c.Print(live) // side effect must stay
	c.Return(live)
	p := &ir.Program{Name: "t", Funcs: []*ir.Method{b.M}, Main: b.M}
	p.Seal()
	out := optRun(t, p, true)
	if len(out.Output) != 1 || out.Output[0] != 5 {
		t.Fatalf("print lost: %v", out.Output)
	}
	out2 := optRun(t, p, false)
	if out2.Stats.Instrs <= out.Stats.Instrs {
		t.Errorf("DCE removed nothing: %d vs %d instrs", out.Stats.Instrs, out2.Stats.Instrs)
	}
}

func TestOptimizeCSE(t *testing.T) {
	b := ir.NewFunc("main", 1)
	c := b.At(b.EntryBlock())
	// Same expression twice over a live, non-constant operand.
	k := c.Const(3)
	a1 := c.Bin(ir.OpMul, 0, k)
	a2 := c.Bin(ir.OpMul, 0, k)
	c.Print(a1)
	c.Print(a2)
	s := c.Bin(ir.OpAdd, a1, a2)
	c.Return(s)
	p := &ir.Program{Name: "t"}
	mb := ir.NewFunc("main", 0)
	mc := mb.At(mb.EntryBlock())
	arg := mc.Const(7)
	mc.Return(mc.Call(b.M, arg))
	b.M.Name = "f"
	p.Funcs = []*ir.Method{b.M, mb.M}
	p.Main = mb.M
	p.Seal()
	q := ir.CloneProgram(p)
	var f *ir.Method
	for _, m := range q.Methods() {
		if m.Name == "f" {
			f = m
		}
	}
	Optimize(f)
	muls := 0
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == ir.OpMul {
				muls++
			}
		}
	}
	if muls != 1 {
		t.Errorf("CSE left %d multiplies, want 1", muls)
	}
}

func TestOptimizeJumpThreading(t *testing.T) {
	b := ir.NewFunc("main", 0)
	c := b.At(b.EntryBlock())
	fwd := b.Block("fwd")
	end := b.Block("end")
	c.Jump(fwd)
	b.At(fwd).Jump(end)
	ec := b.At(end)
	ec.Return(ec.Const(1))
	p := &ir.Program{Name: "t", Funcs: []*ir.Method{b.M}, Main: b.M}
	p.Seal()
	q := ir.CloneProgram(p)
	Optimize(q.Main)
	if len(q.Main.Blocks) != 2 {
		t.Errorf("forwarding block survived: %d blocks", len(q.Main.Blocks))
	}
}

// TestOptimizePreservesSemanticsFuzz is the optimizer's own
// semantics-preservation property.
func TestOptimizePreservesSemanticsFuzz(t *testing.T) {
	for s := 0; s < 30; s++ {
		seed := uint64(s)*7919 + 5
		prog := ir.RandomProgram(seed, ir.RandomProgramConfig{})
		plain := optRun(t, prog, false)
		opt := optRun(t, prog, true)
		if plain.Return != opt.Return {
			t.Fatalf("seed %d: optimizer changed result: %d vs %d", seed, opt.Return, plain.Return)
		}
		if len(plain.Output) != len(opt.Output) {
			t.Fatalf("seed %d: optimizer changed output length", seed)
		}
		for i := range plain.Output {
			if plain.Output[i] != opt.Output[i] {
				t.Fatalf("seed %d: optimizer changed output[%d]", seed, i)
			}
		}
		if opt.Stats.Instrs > plain.Stats.Instrs {
			t.Errorf("seed %d: optimizer made the program bigger dynamically (%d vs %d)",
				seed, opt.Stats.Instrs, plain.Stats.Instrs)
		}
	}
}

func TestCompileStatsPopulated(t *testing.T) {
	prog := ir.RandomProgram(21, ir.RandomProgramConfig{})
	res, err := Compile(prog, Options{
		Instrumenters: []instr.Instrumenter{&instr.CallEdge{}},
		Framework:     &core.Options{Variation: core.FullDuplication},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompileTime <= 0 {
		t.Error("no compile time recorded")
	}
	if res.Yieldpoints == 0 {
		t.Error("no yieldpoints inserted")
	}
	if res.FrameworkStats.BlocksDuplicated == 0 {
		t.Error("framework stats empty")
	}
	if len(res.Runtimes) != 1 || len(res.Handlers) != 1 {
		t.Error("runtimes/handlers mismatch")
	}
}
