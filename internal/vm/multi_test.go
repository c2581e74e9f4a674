package vm_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// logObserver records every hook invocation as a formatted line, so two
// observers' views of a run can be compared exactly.
type logObserver struct {
	log []string
}

func (l *logObserver) OnEnter(t *vm.Thread, f *vm.Frame) {
	l.log = append(l.log, fmt.Sprintf("enter t%d %s", t.ID, f.Method.FullName()))
}

func (l *logObserver) OnExit(t *vm.Thread, f *vm.Frame) {
	l.log = append(l.log, fmt.Sprintf("exit t%d %s", t.ID, f.Method.FullName()))
}

func (l *logObserver) OnTransfer(t *vm.Thread, f *vm.Frame, in *ir.Instr, target int) {
	l.log = append(l.log, fmt.Sprintf("transfer t%d %s %s->%d", t.ID, f.Method.FullName(), in.Op, target))
}

func (l *logObserver) OnCheck(t *vm.Thread, f *vm.Frame, in *ir.Instr, fired bool) {
	l.log = append(l.log, fmt.Sprintf("check t%d %s fired=%v", t.ID, f.Method.FullName(), fired))
}

func (l *logObserver) OnProbe(t *vm.Thread, f *vm.Frame, p *ir.Probe) {
	l.log = append(l.log, fmt.Sprintf("probe t%d owner=%d kind=%d", t.ID, p.Owner, p.Kind))
}

func (l *logObserver) OnYield(t *vm.Thread, f *vm.Frame) {
	l.log = append(l.log, fmt.Sprintf("yield t%d %s", t.ID, f.Method.FullName()))
}

// multiProgram compiles a sampled program whose run exercises every hook:
// calls, transfers, checks (hit and miss), probes and yieldpoints.
func multiProgram(t *testing.T) *compile.Result {
	t.Helper()
	fb := ir.NewFunc("leaf", 1)
	{
		c := fb.At(fb.EntryBlock())
		two := c.Const(2)
		c.Return(c.Bin(ir.OpMul, 0, two))
	}
	mb := ir.NewFunc("main", 0)
	{
		c := mb.At(mb.EntryBlock())
		n := c.Const(64)
		lp := c.CountedLoop(n, "l")
		lp.Body.Call(fb.M, lp.I)
		lp.Body.Jump(lp.Latch)
		lp.After.Return(lp.I)
	}
	p := &ir.Program{Name: "multi", Funcs: []*ir.Method{fb.M, mb.M}, Main: mb.M}
	p.Seal()
	res, err := compile.Compile(p, compile.Options{
		Instrumenters: []instr.Instrumenter{&instr.CallEdge{}},
		Framework:     &core.Options{Variation: core.FullDuplication},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runWith(t *testing.T, res *compile.Result, obs vm.Observer, reference bool) *vm.Result {
	t.Helper()
	out, err := vm.New(res.Prog, vm.Config{
		Trigger:   trigger.NewCounter(50),
		Handlers:  res.Handlers,
		Observer:  obs,
		Reference: reference,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMultiObserverMatchesSingle proves the fan-out contract: every
// element of a MultiObserver sees exactly the event sequence a single
// installed observer sees, per hook and in order, and the run's Result
// is unchanged by the fan-out.
func TestMultiObserverMatchesSingle(t *testing.T) {
	for _, ref := range []bool{false, true} {
		name := "fast"
		if ref {
			name = "reference"
		}
		t.Run(name, func(t *testing.T) {
			res := multiProgram(t)
			single := &logObserver{}
			soloOut := runWith(t, res, single, ref)
			if len(single.log) == 0 {
				t.Fatal("single observer saw no events")
			}
			var kinds = map[string]bool{}
			for _, line := range single.log {
				var k string
				fmt.Sscanf(line, "%s", &k)
				kinds[k] = true
			}
			for _, k := range []string{"enter", "exit", "transfer", "check", "probe", "yield"} {
				if !kinds[k] {
					t.Errorf("single observer never saw a %q event", k)
				}
			}

			a, b := &logObserver{}, &logObserver{}
			multiOut := runWith(t, res, vm.MultiObserver{a, b}, ref)
			if !reflect.DeepEqual(single.log, a.log) {
				t.Errorf("first fan-out element diverged from single observer (%d vs %d events)", len(a.log), len(single.log))
			}
			if !reflect.DeepEqual(a.log, b.log) {
				t.Errorf("fan-out elements diverged from each other (%d vs %d events)", len(a.log), len(b.log))
			}
			if !reflect.DeepEqual(soloOut, multiOut) {
				t.Errorf("fan-out changed the run result: %+v vs %+v", soloOut, multiOut)
			}
		})
	}
}

// TestMultiObserverOrder proves delivery order within one event follows
// element order.
func TestMultiObserverOrder(t *testing.T) {
	var order []int
	mk := func(id int) *orderObserver { return &orderObserver{id: id, out: &order} }
	res := multiProgram(t)
	runWith(t, res, vm.MultiObserver{mk(1), mk(2), mk(3)}, false)
	if len(order)%3 != 0 || len(order) == 0 {
		t.Fatalf("got %d deliveries, want a positive multiple of 3", len(order))
	}
	for i := 0; i < len(order); i += 3 {
		if order[i] != 1 || order[i+1] != 2 || order[i+2] != 3 {
			t.Fatalf("delivery order at event %d is %v, want [1 2 3]", i/3, order[i:i+3])
		}
	}
}

type orderObserver struct {
	id  int
	out *[]int
}

func (o *orderObserver) OnEnter(*vm.Thread, *vm.Frame) { *o.out = append(*o.out, o.id) }
func (o *orderObserver) OnExit(*vm.Thread, *vm.Frame)  { *o.out = append(*o.out, o.id) }
func (o *orderObserver) OnTransfer(*vm.Thread, *vm.Frame, *ir.Instr, int) {
	*o.out = append(*o.out, o.id)
}
func (o *orderObserver) OnCheck(*vm.Thread, *vm.Frame, *ir.Instr, bool) {
	*o.out = append(*o.out, o.id)
}
func (o *orderObserver) OnProbe(*vm.Thread, *vm.Frame, *ir.Probe) { *o.out = append(*o.out, o.id) }
func (o *orderObserver) OnYield(*vm.Thread, *vm.Frame)            { *o.out = append(*o.out, o.id) }

// TestMultiObserverEvents pins how a fan-out declares events: its mask
// is the union of its elements' (an element without one counts as every
// event) and its deadline the earliest of theirs. Installed on the fast
// path, two sparse elements with different deadlines each record the
// same wakes as on the reference dispatcher, though each also sees the
// events its sibling woke for.
func TestMultiObserverEvents(t *testing.T) {
	a, b := newWakeObserver(37), newWakeObserver(100)
	if got := (vm.MultiObserver{a, b}).Events(); got != 0 {
		t.Errorf("mask of two empty masks = %b, want 0", got)
	}
	if got := (vm.MultiObserver{a, &logObserver{}}).Events(); got != vm.EvAll {
		t.Errorf("mask beside an observer without one = %b, want EvAll", got)
	}
	if got := (vm.MultiObserver{b, a}).NextWake(); got != 37 {
		t.Errorf("deadline = %d, want the earliest, 37", got)
	}
	var wakes [2][2][][2]uint64
	for i, reference := range []bool{false, true} {
		a, b := newWakeObserver(37), newWakeObserver(100)
		v := vm.New(latchLoop(60)(), vm.Config{Observer: vm.MultiObserver{a, b}, Reference: reference})
		a.v, b.v = v, v
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		wakes[i] = [2][][2]uint64{a.wakes, b.wakes}
		if !reference && v.FusionStats().Instrs == 0 {
			t.Error("two sparse elements disabled fusion")
		}
	}
	for e := range wakes[0] {
		if len(wakes[0][e]) == 0 || !slices.Equal(wakes[0][e], wakes[1][e]) {
			t.Errorf("element %d wakes differ:\n  fast:      %v\n  reference: %v", e, wakes[0][e], wakes[1][e])
		}
	}
}

// TestCombineObservers covers the nil-elision rules the CLIs rely on.
func TestCombineObservers(t *testing.T) {
	if got := vm.CombineObservers(); got != nil {
		t.Errorf("CombineObservers() = %v, want nil", got)
	}
	if got := vm.CombineObservers(nil, nil); got != nil {
		t.Errorf("CombineObservers(nil, nil) = %v, want nil", got)
	}
	solo := &logObserver{}
	if got := vm.CombineObservers(nil, solo); got != vm.Observer(solo) {
		t.Errorf("CombineObservers(nil, o) = %v, want the observer itself", got)
	}
	pair := vm.CombineObservers(solo, &logObserver{})
	if m, ok := pair.(vm.MultiObserver); !ok || len(m) != 2 {
		t.Errorf("CombineObservers(a, b) = %T, want 2-element MultiObserver", pair)
	}
}
