package oracle_test

// The oracle is tested from three directions: hand-built programs whose
// invariant outcomes are known exactly (clean runs, the No-Duplication
// expected violation, the mutation kill), random-program sweeps across
// every variation × trigger × dispatcher combination (the acceptance
// sweep), and direct hook-level unit tests that feed the state machine
// hand-crafted event sequences a correct VM would never produce.

import (
	"fmt"
	"strings"
	"testing"

	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/oracle"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

func allInstrumenters() []instr.Instrumenter {
	return []instr.Instrumenter{
		&instr.CallEdge{},
		&instr.FieldAccess{},
		&instr.EdgeProfile{},
		&instr.BlockCount{},
		&instr.ValueProfile{},
		&instr.PathProfile{},
	}
}

// loopProgram builds a deterministic program with nested loops, field
// traffic, calls and a virtual dispatch — enough structure for every
// variation to produce checking code, duplicated code and checks.
func loopProgram() *ir.Program {
	point := &ir.Class{Name: "Point", FieldNames: []string{"x", "y"}}
	p := &ir.Program{Name: "oracle-loop", Classes: []*ir.Class{point}}

	sum := ir.NewFunc("sum", 1)
	{
		c := sum.At(sum.EntryBlock())
		x := c.GetField(0, point, "x")
		y := c.GetField(0, point, "y")
		c.Return(c.Bin(ir.OpAdd, x, y))
	}
	point.AddMethod(sum.M)

	step := ir.NewFunc("step", 1)
	{
		c := step.At(step.EntryBlock())
		three := c.Const(3)
		one := c.Const(1)
		t := c.Bin(ir.OpMul, 0, three)
		c.Return(c.Bin(ir.OpAdd, t, one))
	}

	main := ir.NewFunc("main", 0)
	{
		c := main.At(main.EntryBlock())
		pt := c.New(point)
		acc := c.Const(0)
		n := c.Const(40)
		lp := c.CountedLoop(n, "outer")
		b := lp.Body
		b.PutField(pt, point, "x", lp.I)
		seven := b.Const(7)
		b.PutField(pt, point, "y", b.Bin(ir.OpRem, acc, seven))
		s := b.CallVirt("sum", pt)
		st := b.Call(step.M, lp.I)
		b.BinTo(ir.OpAdd, acc, acc, s)
		b.BinTo(ir.OpAdd, acc, acc, st)
		five := b.Const(5)
		inner := b.CountedLoop(five, "inner")
		inner.Body.BinTo(ir.OpXor, acc, acc, inner.I)
		inner.Body.Jump(inner.Latch)
		inner.After.Jump(lp.Latch)
		lp.After.Return(acc)
	}
	p.Funcs = append(p.Funcs, step.M, main.M)
	p.Main = main.M
	p.Seal()
	return p
}

// straightProgram builds a loop-free main with several field accesses:
// one method entry, zero backedges, several probes. Under No-Duplication
// its guards must exceed the Property-1 bound — the expected violation.
func straightProgram() *ir.Program {
	point := &ir.Class{Name: "Point", FieldNames: []string{"x", "y"}}
	p := &ir.Program{Name: "oracle-straight", Classes: []*ir.Class{point}}
	main := ir.NewFunc("main", 0)
	{
		c := main.At(main.EntryBlock())
		pt := c.New(point)
		one := c.Const(1)
		two := c.Const(2)
		c.PutField(pt, point, "x", one)
		c.PutField(pt, point, "y", two)
		x := c.GetField(pt, point, "x")
		y := c.GetField(pt, point, "y")
		c.Return(c.Bin(ir.OpAdd, x, y))
	}
	p.Funcs = append(p.Funcs, main.M)
	p.Main = main.M
	p.Seal()
	return p
}

// runWithOracle compiles prog under opts and runs it with a fresh oracle
// installed, returning the oracle and Finish's verdict.
func runWithOracle(t *testing.T, prog *ir.Program, opts compile.Options, trig trigger.Trigger, reference bool) (*oracle.Oracle, error) {
	t.Helper()
	res, err := compile.Compile(prog, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	o := oracle.New()
	out, err := vm.New(res.Prog, vm.Config{
		Trigger:   trig,
		Handlers:  res.Handlers,
		MaxCycles: 1 << 33,
		Reference: reference,
		Observer:  o,
	}).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return o, o.Finish(out.Stats)
}

// oracleVariant is one compile configuration × trigger pair the clean
// tests sweep.
type oracleVariant struct {
	name string
	opts func() compile.Options
	trig func() trigger.Trigger
}

func frameworkOpts(v core.Variation) func() compile.Options {
	return func() compile.Options {
		return compile.Options{
			Instrumenters: allInstrumenters(),
			Framework:     &core.Options{Variation: v},
		}
	}
}

func oracleVariants() []oracleVariant {
	counter := func(n int64) func() trigger.Trigger {
		return func() trigger.Trigger { return trigger.NewCounter(n) }
	}
	return []oracleVariant{
		{"plain", func() compile.Options { return compile.Options{} }, nil},
		{"exhaustive", func() compile.Options {
			return compile.Options{Instrumenters: allInstrumenters()}
		}, nil},
		{"checks-only", func() compile.Options {
			return compile.Options{
				ChecksOnly: &core.ChecksOnly{Entries: true, Backedges: true},
			}
		}, counter(3)},
		{"full-never", frameworkOpts(core.FullDuplication),
			func() trigger.Trigger { return trigger.Never{} }},
		{"full-always", frameworkOpts(core.FullDuplication),
			func() trigger.Trigger { return trigger.Always{} }},
		{"full-counter", frameworkOpts(core.FullDuplication), counter(3)},
		{"partial-counter", frameworkOpts(core.PartialDuplication), counter(2)},
		{"partial-always", frameworkOpts(core.PartialDuplication),
			func() trigger.Trigger { return trigger.Always{} }},
		{"nodup-counter", frameworkOpts(core.NoDuplication), counter(2)},
		{"hybrid-counter", func() compile.Options {
			return compile.Options{
				Instrumenters: allInstrumenters(),
				Framework:     &core.Options{Variation: core.Hybrid, HybridThreshold: 2},
			}
		}, counter(3)},
		{"full-timer", frameworkOpts(core.FullDuplication),
			func() trigger.Trigger { return trigger.NewTimer(977) }},
		// Fault-injection schedules: any fire pattern must keep the
		// invariants intact.
		{"full-faulty-timer", frameworkOpts(core.FullDuplication),
			func() trigger.Trigger { return trigger.NewFaultyTimer(733, 500, 37, 42) }},
		{"partial-faulty-timer", frameworkOpts(core.PartialDuplication),
			func() trigger.Trigger { return trigger.NewFaultyTimer(733, 700, -23, 7) }},
		{"full-overflow", frameworkOpts(core.FullDuplication),
			func() trigger.Trigger { return trigger.NewOverflowCounter(5, 3) }},
		{"nodup-overflow", frameworkOpts(core.NoDuplication),
			func() trigger.Trigger { return trigger.NewOverflowCounter(3, 7) }},
		{"full-retuner", frameworkOpts(core.FullDuplication),
			func() trigger.Trigger { return trigger.NewRetuner([]int64{1, 13, 2, 100}, 9) }},
		{"partial-retuner", frameworkOpts(core.PartialDuplication),
			func() trigger.Trigger { return trigger.NewRetuner([]int64{4, 1}, 5) }},
	}
}

// TestOracleCleanHandBuilt runs the deterministic loop program under
// every variant × both dispatchers: no invariant may be violated, and
// configurations that execute code must produce events.
func TestOracleCleanHandBuilt(t *testing.T) {
	for _, v := range oracleVariants() {
		for _, ref := range []bool{false, true} {
			name := v.name + "/fast"
			if ref {
				name = v.name + "/reference"
			}
			t.Run(name, func(t *testing.T) {
				var trig trigger.Trigger
				if v.trig != nil {
					trig = v.trig()
				}
				o, err := runWithOracle(t, loopProgram(), v.opts(), trig, ref)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if o.Events() == 0 {
					t.Fatalf("oracle saw no events; observer hooks missing?")
				}
			})
		}
	}
}

// TestOracleExpectedViolation verifies the §3.2 prediction: under
// No-Duplication a method whose probe count exceeds entries+backedges
// violates Property 1 — and the oracle classifies that as *expected*, not
// as an error.
func TestOracleExpectedViolation(t *testing.T) {
	opts := compile.Options{
		Instrumenters: []instr.Instrumenter{&instr.FieldAccess{}},
		Framework:     &core.Options{Variation: core.NoDuplication},
	}
	for _, ref := range []bool{false, true} {
		o, err := runWithOracle(t, straightProgram(), opts, trigger.Always{}, ref)
		if err != nil {
			t.Fatalf("reference=%v: unexpected violation: %v", ref, err)
		}
		if o.ExpectedPropertyViolations() == 0 {
			t.Fatalf("reference=%v: expected a predicted Property-1 violation, got none", ref)
		}
	}
	// The same program under Full-Duplication stays within the bound:
	// the violation really is the variation's doing.
	opts.Framework = &core.Options{Variation: core.FullDuplication}
	o, err := runWithOracle(t, straightProgram(), opts, trigger.Always{}, false)
	if err != nil {
		t.Fatalf("full-duplication control: %v", err)
	}
	if o.ExpectedPropertyViolations() != 0 {
		t.Fatalf("full-duplication control: unexpected expected-violation count %d", o.ExpectedPropertyViolations())
	}
}

// TestMutationKill proves the oracle has teeth (and `make race` pins it
// by name): a deliberately broken Partial-Duplication
// — the inserted backedge checks forget they sit on backedges — passes
// the static verifier but must be flagged at runtime as a Property-1
// violation on any looping program.
func TestMutationKill(t *testing.T) {
	// A single loop whose *header* carries instrumentation: the header is
	// then kept in the duplicated code, so Partial-Duplication inserts a
	// backedge check for it — the exact check the mutation corrupts — and
	// no honest backedge accounting remains to mask the damage.
	point := &ir.Class{Name: "P", FieldNames: []string{"x"}}
	prog := &ir.Program{Name: "mutant", Classes: []*ir.Class{point}}
	main := ir.NewFunc("main", 0)
	{
		ec := main.At(main.EntryBlock())
		pt := ec.New(point)
		i := ec.Fresh()
		ec.ConstTo(i, 0)
		n := ec.Const(25)
		head := main.Block("head")
		body := main.Block("body")
		after := main.Block("after")
		hc := ec.Jump(head)
		acc := hc.GetField(pt, point, "x") // instrumented loop header
		cond := hc.Bin(ir.OpCmpLT, i, n)
		hc.Branch(cond, body, after)
		bc := main.At(body)
		bc.PutField(pt, point, "x", bc.Bin(ir.OpAdd, acc, i))
		one := bc.Const(1)
		bc.BinTo(ir.OpAdd, i, i, one)
		bc.Jump(head) // the backedge
		ac := main.At(after)
		ac.Return(ac.GetField(pt, point, "x"))
	}
	prog.Funcs = append(prog.Funcs, main.M)
	prog.Main = main.M
	prog.Seal()
	opts := compile.Options{
		Instrumenters: []instr.Instrumenter{&instr.FieldAccess{}},
		Framework:     &core.Options{Variation: core.PartialDuplication},
	}
	core.FaultSkipBackedgeMask = true
	res, cerr := compile.Compile(prog, opts)
	core.FaultSkipBackedgeMask = false
	if cerr != nil {
		t.Fatalf("mutated compile rejected statically: %v (the mutation must only be visible at runtime)", cerr)
	}
	for _, ref := range []bool{false, true} {
		o := oracle.New()
		out, err := vm.New(res.Prog, vm.Config{
			Trigger:   trigger.Never{},
			Handlers:  res.Handlers,
			MaxCycles: 1 << 33,
			Reference: ref,
			Observer:  o,
		}).Run()
		if err != nil {
			t.Fatalf("reference=%v: run: %v", ref, err)
		}
		ferr := o.Finish(out.Stats)
		if ferr == nil {
			t.Fatalf("reference=%v: oracle failed to kill the mutant: no violation reported", ref)
		}
		if !strings.Contains(ferr.Error(), "property-1") {
			t.Fatalf("reference=%v: mutant killed by the wrong invariant:\n%v", ref, ferr)
		}
	}
}

// TestOracleCleanRandomPrograms is the acceptance sweep: random programs
// under Full- and Partial-Duplication, both dispatchers, several
// triggers, all oracle-clean. The full (non-short) run covers 200 seeds.
func TestOracleCleanRandomPrograms(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 16
	}
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			prog := ir.RandomProgram(seed, ir.RandomProgramConfig{WithThreads: s%2 == 1})
			if err := prog.Verify(ir.VerifyBase); err != nil {
				t.Fatalf("generated program invalid: %v", err)
			}
			variations := []core.Variation{core.FullDuplication, core.PartialDuplication}
			intervals := []int64{1, 3, 17}
			for _, v := range variations {
				for _, iv := range intervals {
					for _, ref := range []bool{false, true} {
						o, err := runWithOracle(t, prog, frameworkOpts(v)(), trigger.NewCounter(iv), ref)
						if err != nil {
							t.Fatalf("%s interval=%d reference=%v: %v", v, iv, ref, err)
						}
						if o.Events() == 0 {
							t.Fatalf("%s interval=%d reference=%v: no events", v, iv, ref)
						}
					}
				}
			}
		})
	}
}

// TestOracleAllVariationsRandom sweeps a smaller seed set across every
// variation (plus checks-only) and the fault-injection triggers.
func TestOracleAllVariationsRandom(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*6364136223846793005 + 99991
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			prog := ir.RandomProgram(seed, ir.RandomProgramConfig{WithThreads: s%3 == 2})
			for _, v := range oracleVariants() {
				for _, ref := range []bool{false, true} {
					var trig trigger.Trigger
					if v.trig != nil {
						trig = v.trig()
					}
					if _, err := runWithOracle(t, prog, v.opts(), trig, ref); err != nil {
						t.Fatalf("%s reference=%v: %v", v.name, ref, err)
					}
				}
			}
		})
	}
}

// --- hook-level unit tests: feed the state machine sequences a correct
// --- VM never produces and check the precise invariant that trips.

// fakeMethod builds a minimal transformed method skeleton for hand-fed
// events: an entry check block, a duplicated block, and a checking block.
func fakeMethod(variation string) (m *ir.Method, chk, dup, orig *ir.Block, check *ir.Instr) {
	m = &ir.Method{Name: "fake", Transformed: variation}
	dup = &ir.Block{ID: 1, Kind: ir.KindDuplicated}
	orig = &ir.Block{ID: 2, Kind: ir.KindChecking}
	chk = &ir.Block{ID: 0, Kind: ir.KindCheckBlock}
	chk.Instrs = []ir.Instr{{Op: ir.OpCheck, Targets: []*ir.Block{dup, orig}}}
	check = &chk.Instrs[0]
	m.Blocks = []*ir.Block{chk, dup, orig}
	return
}

func violationInvariants(o *oracle.Oracle) []string {
	var out []string
	for _, v := range o.Violations() {
		out = append(out, v.Invariant)
	}
	return out
}

func TestOracleHookFiredCheckInterrupted(t *testing.T) {
	m, chk, _, _, check := fakeMethod(core.FullDuplication.String())
	th := &vm.Thread{ID: 0}
	f := &vm.Frame{Method: m, Block: chk}

	o := oracle.New()
	o.OnEnter(th, f)
	o.OnCheck(th, f, check, true)
	// A correct VM would now transfer into duplicated code; entering a
	// method instead abandons the sample.
	o.OnEnter(th, &vm.Frame{Method: m, Block: chk})
	if got := violationInvariants(o); len(got) != 1 || got[0] != "sample-placement" {
		t.Fatalf("want one sample-placement violation, got %v", got)
	}
}

func TestOracleHookFallThroughAfterFire(t *testing.T) {
	m, chk, _, _, check := fakeMethod(core.FullDuplication.String())
	th := &vm.Thread{ID: 0}
	f := &vm.Frame{Method: m, Block: chk}

	o := oracle.New()
	o.OnCheck(th, f, check, true)
	o.OnTransfer(th, f, check, 1) // fired, yet took the fall-through edge
	if got := violationInvariants(o); len(got) != 1 || got[0] != "sample-placement" {
		t.Fatalf("want one sample-placement violation, got %v", got)
	}
}

func TestOracleHookEntryDiscipline(t *testing.T) {
	m, _, dup, orig, _ := fakeMethod(core.FullDuplication.String())
	th := &vm.Thread{ID: 0}
	f := &vm.Frame{Method: m, Block: orig}
	jump := &ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{dup}}

	o := oracle.New()
	o.OnTransfer(th, f, jump, 0) // checking → duplicated without a check
	if got := violationInvariants(o); len(got) != 1 || got[0] != "entry-discipline" {
		t.Fatalf("want one entry-discipline violation, got %v", got)
	}
}

func TestOracleHookExitDiscipline(t *testing.T) {
	m, _, dup, orig, _ := fakeMethod(core.FullDuplication.String())
	orig.Twin = dup // not a removed node: the exit has no excuse
	dup.Twin = orig
	th := &vm.Thread{ID: 0}
	f := &vm.Frame{Method: m, Block: dup}
	jump := &ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{orig}} // no backedge mask

	o := oracle.New()
	o.OnTransfer(th, f, jump, 0)
	if got := violationInvariants(o); len(got) != 1 || got[0] != "exit-discipline" {
		t.Fatalf("want one exit-discipline violation, got %v", got)
	}

	// The same exit with the backedge bit set is legitimate.
	o2 := oracle.New()
	masked := &ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{orig}, BackedgeMask: 1}
	o2.OnTransfer(th, f, masked, 0)
	if got := violationInvariants(o2); len(got) != 0 {
		t.Fatalf("backedge exit flagged: %v", got)
	}

	// Under Partial-Duplication, exiting into a *removed* node's checking
	// original (Twin == nil) is the §3.1 bottom-node redirect: legal.
	m3, _, dup3, orig3, _ := fakeMethod(core.PartialDuplication.String())
	o3 := oracle.New()
	f3 := &vm.Frame{Method: m3, Block: dup3}
	o3.OnTransfer(th, f3, &ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{orig3}}, 0)
	if got := violationInvariants(o3); len(got) != 0 {
		t.Fatalf("bottom-node redirect flagged: %v", got)
	}
}

func TestOracleHookGuardAttribution(t *testing.T) {
	m, chk, _, _, _ := fakeMethod(core.NoDuplication.String())
	p1 := &ir.Probe{Owner: 0, ID: 1}
	p2 := &ir.Probe{Owner: 0, ID: 2}
	guard := &ir.Instr{Op: ir.OpCheckedProbe, Probe: p1}
	th := &vm.Thread{ID: 0}
	f := &vm.Frame{Method: m, Block: chk}

	o := oracle.New()
	o.OnCheck(th, f, guard, true)
	o.OnProbe(th, f, p2) // wrong probe delivered
	if got := violationInvariants(o); len(got) != 1 || got[0] != "sample-attribution" {
		t.Fatalf("want one sample-attribution violation, got %v", got)
	}
}

func TestOracleReconcile(t *testing.T) {
	m, chk, _, _, _ := fakeMethod("")
	th := &vm.Thread{ID: 0}
	f := &vm.Frame{Method: m, Block: chk}

	o := oracle.New()
	o.OnEnter(th, f)
	o.OnExit(th, f)
	// Claim the VM saw two entries; the oracle saw one.
	err := o.Finish(vm.Stats{MethodEntries: 2})
	if err == nil || !strings.Contains(err.Error(), "reconcile") {
		t.Fatalf("want reconcile violation, got %v", err)
	}
}
