package vm_test

// Differential tests: every configuration runs twice, once on the fast
// dispatcher and once on the retained reference dispatcher
// (vm.Config.Reference), and the two runs must agree on everything the
// Result exposes — return value, output sequence, the full Stats struct
// (cycles included) and every instrumentation profile. This is the
// executable contract that the fast path's precomputed cost table, frame
// pooling, hoisted budget checks and ring scheduler changed nothing
// observable. It lives in an external test package because it needs the
// compile pipeline, which itself imports vm.

import (
	"fmt"
	"strings"
	"testing"

	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/profile"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// diffVariant is one compile+run configuration exercised under both
// dispatchers.
type diffVariant struct {
	name string
	inst bool
	fw   *core.Options
	trig func(seed uint64) trigger.Trigger
	ic   *vm.ICacheConfig
}

func diffVariants() []diffVariant {
	counter := func(n int64) func(uint64) trigger.Trigger {
		return func(uint64) trigger.Trigger { return trigger.NewCounter(n) }
	}
	return []diffVariant{
		{name: "plain"},
		{name: "exhaustive", inst: true},
		{name: "full-dup", inst: true,
			fw: &core.Options{Variation: core.FullDuplication}, trig: counter(3)},
		{name: "full-counted", inst: true,
			fw:   &core.Options{Variation: core.FullDuplication, CountedIterations: true},
			trig: counter(7)},
		{name: "nodup", inst: true,
			fw: &core.Options{Variation: core.NoDuplication}, trig: counter(5)},
		{name: "partial", inst: true,
			fw: &core.Options{Variation: core.PartialDuplication}, trig: counter(11)},
		{name: "full-yp", inst: true,
			fw:   &core.Options{Variation: core.FullDuplication, YieldpointOpt: true},
			trig: counter(13)},
		{name: "hybrid", inst: true,
			fw: &core.Options{Variation: core.Hybrid}, trig: counter(17)},
		{name: "timer", inst: true,
			fw: &core.Options{Variation: core.FullDuplication},
			trig: func(uint64) trigger.Trigger {
				// The timer trigger polls the live cycle counter, so this
				// variant is maximally sensitive to any divergence in when
				// cycles are charged.
				return trigger.NewTimer(977)
			}},
		{name: "icache", inst: true,
			fw:   &core.Options{Variation: core.FullDuplication},
			trig: counter(9), ic: vm.DefaultICache()},
	}
}

func diffInstrumenters() []instr.Instrumenter {
	return []instr.Instrumenter{
		&instr.CallEdge{},
		&instr.FieldAccess{},
		&instr.EdgeProfile{},
		&instr.BlockCount{},
		&instr.ValueProfile{},
		&instr.PathProfile{},
	}
}

// diffRun compiles the program fresh (so instrumentation runtimes start
// empty) and runs it under one dispatcher.
func diffRun(t *testing.T, prog *ir.Program, v diffVariant, seed uint64, reference bool) (*vm.Result, []instr.Runtime, error) {
	t.Helper()
	opts := compile.Options{Framework: v.fw}
	if v.inst {
		opts.Instrumenters = diffInstrumenters()
	}
	res, err := compile.Compile(prog, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := vm.Config{
		Handlers:  res.Handlers,
		MaxCycles: 1 << 33,
		ICache:    v.ic,
		Reference: reference,
	}
	if v.trig != nil {
		cfg.Trigger = v.trig(seed)
	}
	if v.fw != nil && v.fw.CountedIterations {
		cfg.IterBudget = 8
	}
	out, rerr := vm.New(res.Prog, cfg).Run()
	return out, res.Runtimes, rerr
}

func compareRuns(t *testing.T, label string, fast, ref *vm.Result, fastRT, refRT []instr.Runtime) {
	t.Helper()
	if fast.Return != ref.Return {
		t.Errorf("%s: return %d (fast) vs %d (reference)", label, fast.Return, ref.Return)
	}
	if len(fast.Output) != len(ref.Output) {
		t.Fatalf("%s: %d outputs (fast) vs %d (reference)", label, len(fast.Output), len(ref.Output))
	}
	for i := range fast.Output {
		if fast.Output[i] != ref.Output[i] {
			t.Fatalf("%s: output[%d] = %d (fast) vs %d (reference)", label, i, fast.Output[i], ref.Output[i])
		}
	}
	if fast.Stats != ref.Stats {
		t.Errorf("%s: stats diverge\n  fast:      %+v\n  reference: %+v", label, fast.Stats, ref.Stats)
	}
	for i := range fastRT {
		pf, pr := fastRT[i].Profile(), refRT[i].Profile()
		if d := profileDiff(pf, pr); d != "" {
			t.Errorf("%s: profile %s differs: %s", label, pf.Name, d)
		}
	}
}

// profileDiff describes the first difference between two profiles'
// entries, or returns "" when every key has the same count in both.
func profileDiff(fast, ref *profile.Profile) string {
	fe, re := fast.Entries(), ref.Entries()
	for i := range min(len(fe), len(re)) {
		if f, r := fe[i], re[i]; f.Key != r.Key || f.Count != r.Count {
			return fmt.Sprintf("entry %d is key %#x count %d (fast) vs key %#x count %d (reference)",
				i, f.Key, f.Count, r.Key, r.Count)
		}
	}
	if len(fe) != len(re) {
		return fmt.Sprintf("%d entries (fast) vs %d (reference)", len(fe), len(re))
	}
	return ""
}

// TestDifferentialRandomPrograms fuzzes the dispatcher equivalence over
// random structured programs (half of them multi-threaded), across every
// variant in diffVariants. Seeds run as parallel subtests, so `go test
// -race` also exercises the scheduler and pools under -cpu contention.
func TestDifferentialRandomPrograms(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*6364136223846793005 + 1442695040888963407
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			prog := ir.RandomProgram(seed, ir.RandomProgramConfig{WithThreads: s%2 == 1})
			if err := prog.Verify(ir.VerifyBase); err != nil {
				t.Fatalf("generated program invalid: %v", err)
			}
			for _, v := range diffVariants() {
				ref, refRT, rerr := diffRun(t, prog, v, seed, true)
				fast, fastRT, ferr := diffRun(t, prog, v, seed, false)
				if (ferr == nil) != (rerr == nil) {
					t.Fatalf("%s: fast err %v, reference err %v", v.name, ferr, rerr)
				}
				if ferr != nil {
					if ferr.Error() != rerr.Error() {
						t.Fatalf("%s: traps differ:\n  fast:      %v\n  reference: %v", v.name, ferr, rerr)
					}
					continue
				}
				compareRuns(t, v.name, fast, ref, fastRT, refRT)
			}
		})
	}
}

// TestDifferentialTraps runs hand-built trapping programs under both
// dispatchers and requires the identical error, location included (these
// traps are synchronous faults, where the fast path syncs the PC before
// trapping; only the hoisted cycle-budget trap is allowed to move, and it
// is covered separately by TestBudgetTrapBothDispatchers).
func TestDifferentialTraps(t *testing.T) {
	cases := []struct {
		name string
		want string
		prog func() *ir.Program
	}{
		{"div-zero", "division by zero", func() *ir.Program {
			b := ir.NewFunc("main", 0)
			c := b.At(b.EntryBlock())
			z := c.Const(0)
			o := c.Const(1)
			c.Return(c.Bin(ir.OpDiv, o, z))
			p := &ir.Program{Name: "t", Funcs: []*ir.Method{b.M}, Main: b.M}
			p.Seal()
			return p
		}},
		{"null-getfield", "getfield on null", func() *ir.Program {
			cl := &ir.Class{Name: "C", FieldNames: []string{"f"}}
			b := ir.NewFunc("main", 0)
			c := b.At(b.EntryBlock())
			nul := b.FreshReg()
			c.Blk().Append(ir.Instr{Op: ir.OpGetField, Dst: nul, A: nul, Class: cl})
			c.Return(nul)
			p := &ir.Program{Name: "t", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{b.M}, Main: b.M}
			p.Seal()
			return p
		}},
		{"stack-overflow", "stack overflow", func() *ir.Program {
			f := ir.NewFunc("f", 1)
			c := f.At(f.EntryBlock())
			c.Return(c.Call(f.M, 0))
			mb := ir.NewFunc("main", 0)
			mc := mb.At(mb.EntryBlock())
			z := mc.Const(0)
			mc.Return(mc.Call(f.M, z))
			p := &ir.Program{Name: "t", Funcs: []*ir.Method{f.M, mb.M}, Main: mb.M}
			p.Seal()
			return p
		}},
		{"join-non-thread", "join on non-thread", func() *ir.Program {
			b := ir.NewFunc("main", 0)
			c := b.At(b.EntryBlock())
			v := c.Const(1)
			c.Return(c.Join(v))
			p := &ir.Program{Name: "t", Funcs: []*ir.Method{b.M}, Main: b.M}
			p.Seal()
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := []vm.Config{
				{MaxStack: 64},
				{MaxStack: 64, Reference: true},
			}
			msgs := make([]string, len(cfgs))
			for i, cfg := range cfgs {
				_, err := vm.New(tc.prog(), cfg).Run()
				if err == nil {
					t.Fatalf("config %d: expected trap %q", i, tc.want)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("config %d: trap %q does not contain %q", i, err, tc.want)
				}
				msgs[i] = err.Error()
			}
			if msgs[0] != msgs[1] {
				t.Fatalf("traps differ:\n  fast:      %s\n  reference: %s", msgs[0], msgs[1])
			}
		})
	}
}
