package vm_test

import (
	"testing"

	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// fieldLoop builds main: obj = new Acc; for i < iters { obj.sum +=
// i }; return obj.sum — two field accesses per iteration.
func fieldLoop(iters int64) *ir.Program {
	cl := &ir.Class{Name: "Acc", FieldNames: []string{"sum"}}
	b := ir.NewFunc("main", 0)
	c := b.At(b.EntryBlock())
	obj := c.New(cl)
	lp := c.CountedLoop(c.Const(iters), "l")
	sum := lp.Body.GetField(obj, cl, "sum")
	lp.Body.PutField(obj, cl, "sum", lp.Body.Bin(ir.OpAdd, sum, lp.I))
	lp.Body.Jump(lp.Latch)
	lp.After.Return(lp.After.GetField(obj, cl, "sum"))
	p := &ir.Program{Name: "fieldloop", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{b.M}, Main: b.M}
	p.Seal()
	return p
}

// TestProbeDoesNotAllocate guards the VM-owned probe event: a
// field-access-instrumented loop must allocate exactly as much at 1000
// iterations as at 100, so an executed probe allocates nothing. It
// fails when the event escapes to the heap again. The nodup leg fires
// every guard, so each of its probes runs behind a check.
func TestProbeDoesNotAllocate(t *testing.T) {
	legs := []struct {
		name string
		fw   *core.Options
	}{
		{"exhaustive", nil},
		{"nodup", &core.Options{Variation: core.NoDuplication}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			allocs := func(iters int64) float64 {
				res, err := compile.Compile(fieldLoop(iters), compile.Options{
					Instrumenters: []instr.Instrumenter{&instr.FieldAccess{}},
					Framework:     leg.fw,
				})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				cfg := vm.Config{Handlers: res.Handlers, Trigger: trigger.NewCounter(1)}
				var probes uint64
				n := testing.AllocsPerRun(5, func() {
					out, err := vm.New(res.Prog, cfg).Run()
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					probes = out.Stats.Probes
				})
				if probes < uint64(2*iters) {
					t.Fatalf("%d iterations ran %d probes, want at least %d", iters, probes, 2*iters)
				}
				return n
			}
			if small, large := allocs(100), allocs(1000); small != large {
				t.Fatalf("a run allocates %.0f times at 100 iterations but %.0f at 1000: probes allocate", small, large)
			}
		})
	}
}
