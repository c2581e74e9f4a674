package vm_test

import (
	"testing"

	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/vm"
)

// slotProgram builds a class hierarchy and a main that calls through
// it virtually:
//
//	Root             fields only
//	A extends Root   f(x) = x+1, g(x) = 10x
//	B extends A      f(x) = x+2
//	C extends B      f(x) = x+3
//	D extends A      declares nothing
//
// f is overridden at three depths and g inherited by B, C and D. main
// keeps one instance of A, B, C and D in an array and, for 25 rounds,
// calls f and g on each from one call site apiece, so every site sees
// every class. With missing set it also calls h, which no class
// declares, on D in round 20.
func slotProgram(missing bool) (p *ir.Program, root *ir.Class) {
	root = &ir.Class{Name: "Root", FieldNames: []string{"x"}}
	a := &ir.Class{Name: "A", Super: root}
	b := &ir.Class{Name: "B", Super: a}
	c := &ir.Class{Name: "C", Super: b}
	d := &ir.Class{Name: "D", Super: a}
	method := func(cl *ir.Class, name string, op ir.Op, k int64) {
		m := ir.NewMethod(cl, name, 2)
		mc := m.At(m.EntryBlock())
		mc.Return(mc.Bin(op, 1, mc.Const(k)))
	}
	method(a, "f", ir.OpAdd, 1)
	method(a, "g", ir.OpMul, 10)
	method(b, "f", ir.OpAdd, 2)
	method(c, "f", ir.OpAdd, 3)

	mb := ir.NewFunc("main", 0)
	mc := mb.At(mb.EntryBlock())
	objs := mc.NewArray(mc.Const(4))
	for i, cl := range []*ir.Class{a, b, c, d} {
		mc.AStore(objs, mc.Const(int64(i)), mc.New(cl))
	}
	sum := mc.Const(0)
	rounds := mc.CountedLoop(mc.Const(25), "round")
	each := rounds.Body.CountedLoop(rounds.Body.Const(4), "each")
	o := each.Body.ALoad(objs, each.I)
	each.Body.BinTo(ir.OpAdd, sum, sum, each.Body.CallVirt("f", o, rounds.I))
	each.Body.BinTo(ir.OpAdd, sum, sum, each.Body.CallVirt("g", o, each.I))
	if missing {
		call, skip := mb.Block("call_h"), mb.Block("skip_h")
		at := each.Body.Bin(ir.OpAnd,
			each.Body.Bin(ir.OpCmpEQ, rounds.I, each.Body.Const(20)),
			each.Body.Bin(ir.OpCmpEQ, each.I, each.Body.Const(3)))
		each.Body.Branch(at, call, skip)
		hc := mb.At(call)
		hc.CallVirt("h", o)
		hc.Jump(skip)
		mb.At(skip).Jump(each.Latch)
	} else {
		each.Body.Jump(each.Latch)
	}
	each.After.Jump(rounds.Latch)
	rounds.After.Return(sum)
	// Root is listed last, so a class listed after the one whose ID it
	// takes on (see TestSlotDispatchMatchesReference) is Root.
	p = &ir.Program{Name: "slots", Classes: []*ir.Class{a, b, c, d, root}, Funcs: []*ir.Method{mb.M}, Main: mb.M}
	p.Seal()
	return p, root
}

// slotRuns runs p on the fast path and on the reference dispatcher,
// with fresh call-edge runtimes each, and requires the two to agree:
// the same Stats and call-edge profile, or the same trap, with the
// same text, Method, Block and PC, and the same Stats at it. It
// returns the fast run's result and VM.
func slotRuns(t *testing.T, p *ir.Program, ins []instr.Instrumenter) (*vm.Result, *vm.VM, error) {
	t.Helper()
	type run struct {
		v   *vm.VM
		out *vm.Result
		err error
		rts []instr.Runtime
	}
	var runs [2]run
	for i, ref := range []bool{false, true} {
		rts, hs := instr.NewRuntimes(p, ins)
		v := vm.New(p, vm.Config{Handlers: hs, Reference: ref})
		out, err := v.Run()
		runs[i] = run{v, out, err, rts}
	}
	fast, ref := runs[0], runs[1]
	if fs, rs := fast.v.Stats(), ref.v.Stats(); fs != rs {
		t.Fatalf("stats diverge\n  fast:      %+v\n  reference: %+v", fs, rs)
	}
	if (fast.err == nil) != (ref.err == nil) {
		t.Fatalf("fast error %v, reference error %v", fast.err, ref.err)
	}
	if fast.err != nil {
		fe, ok1 := fast.err.(*vm.RuntimeError)
		re, ok2 := ref.err.(*vm.RuntimeError)
		if !ok1 || !ok2 || *fe != *re {
			t.Fatalf("traps differ\n  fast:      %v (%#v)\n  reference: %v (%#v)", fast.err, fast.err, ref.err, ref.err)
		}
		return nil, fast.v, fast.err
	}
	if fast.out.Return != ref.out.Return {
		t.Fatalf("return %d (fast) vs %d (reference)", fast.out.Return, ref.out.Return)
	}
	for i := range fast.rts {
		pf, pr := fast.rts[i].Profile(), ref.rts[i].Profile()
		if d := profileDiff(pf, pr); d != "" {
			t.Fatalf("profile %s differs: %s", pf.Name, d)
		}
	}
	return fast.out, fast.v, nil
}

// TestSlotDispatchMatchesReference checks the fast path's slot table
// for virtual calls against the reference dispatcher's Class.Lookup,
// with call-edge instrumentation recording every (caller, site, callee)
// edge: overrides at three depths, an inherited method, a missing
// method's trap, and classes whose IDs another program's Seal changed
// after this one's. A listed class renumbered so must not shadow the
// class whose row its new ID indexes; a program that instantiates such
// a class runs on the reference as a whole.
func TestSlotDispatchMatchesReference(t *testing.T) {
	// f sums x+k over 25 rounds x for each class's k (1, 2, 3 and D's
	// inherited 1); g sums 10*i over i in 0..3, 25 times.
	const want = (4*300 + 25*(1+2+3+1)) + 25*10*6
	ins := []instr.Instrumenter{&instr.CallEdge{}}
	prepare := func(missing bool) (*ir.Program, *ir.Class) {
		p, root := slotProgram(missing)
		instr.AssignCallSiteIDs(p)
		instr.InstrumentMethods(p, ins, nil)
		p.Seal()
		return p, root
	}
	fused := func(t *testing.T, v *vm.VM, s vm.Stats, whole bool) {
		t.Helper()
		if got := v.FusionStats().Instrs; whole && got != s.Instrs || !whole && got != 0 {
			t.Fatalf("fused %d of %d instructions; want all: %v", got, s.Instrs, whole)
		}
	}
	t.Run("dispatch", func(t *testing.T) {
		p, _ := prepare(false)
		out, v, _ := slotRuns(t, p, ins)
		if out.Return != want {
			t.Fatalf("returned %d, want %d", out.Return, want)
		}
		if out.Stats.MethodEntries != 1+25*4*2 {
			t.Fatalf("%d method entries, want %d", out.Stats.MethodEntries, 1+25*4*2)
		}
		fused(t, v, out.Stats, true)
	})
	t.Run("missing", func(t *testing.T) {
		p, _ := prepare(true)
		_, v, err := slotRuns(t, p, ins)
		re, ok := err.(*vm.RuntimeError)
		if !ok || re.Reason != "no method h on class D" || re.Block == nil || re.Block.Label != "call_h" || re.PC != 0 {
			t.Fatalf("got %v, want the missing-method trap at the call in call_h", err)
		}
		fused(t, v, v.Stats(), true)
	})
	t.Run("renumbered", func(t *testing.T) {
		// Root is listed at ID 4 here; another program lists it at 1,
		// where this one lists B. Root has no methods, so the other
		// Seal renumbers no block of this program.
		p, root := prepare(false)
		other := ir.NewFunc("other", 0)
		other.At(other.EntryBlock()).ReturnVoid()
		(&ir.Program{Name: "other", Classes: []*ir.Class{{Name: "X"}, root},
			Funcs: []*ir.Method{other.M}, Main: other.M}).Seal()
		if root.ID != 1 || p.Classes[1].Name != "B" {
			t.Fatalf("Root's ID %d, class listed at 1 %s: want Root at B's ID", root.ID, p.Classes[1].Name)
		}
		out, v, _ := slotRuns(t, p, ins)
		if out.Return != want {
			t.Fatalf("returned %d, want %d", out.Return, want)
		}
		fused(t, v, out.Stats, true)
	})
	t.Run("renumbered-receiver", func(t *testing.T) {
		// Another program lists D (and, as it must, D's superclasses)
		// at other IDs: this program's new D no longer names the class
		// it lists at D's ID, and the whole run goes to the reference.
		p, _ := prepare(false)
		other := ir.NewFunc("other", 0)
		other.At(other.EntryBlock()).ReturnVoid()
		d, _ := p.ClassByName("D")
		(&ir.Program{Name: "other", Classes: []*ir.Class{{Name: "X"}, d.Super.Super, d.Super, d},
			Funcs: []*ir.Method{other.M}, Main: other.M}).Seal()
		out, v, _ := slotRuns(t, p, ins)
		if out.Return != want {
			t.Fatalf("returned %d, want %d", out.Return, want)
		}
		fused(t, v, out.Stats, false)
	})
}
