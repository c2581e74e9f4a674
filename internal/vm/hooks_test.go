package vm_test

import (
	"errors"
	"fmt"
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

// blockCheck is an observer that checks, at every hook it gets, that
// Frame.Block is current, which the fast path writes only where
// something can read it (DESIGN.md §7.5): the block is one of the
// frame's method's, and it holds the hook's instruction, probe or
// yieldpoint, starts the method at OnEnter and ends in the return at
// OnExit. It also keeps a digest of every hook's kind, block and
// instruction, which the all-events observer compares across
// dispatchers, the cycle at every 256th transfer and the deepest
// stack.
type blockCheck struct {
	v         *vm.VM
	bad       []string
	digest    uint64
	hooks     int
	transfers int
	stamps    []uint64
	depth     int
}

func (o *blockCheck) fail(f *vm.Frame, format string, args ...any) {
	if len(o.bad) < 5 {
		o.bad = append(o.bad, f.Method.FullName()+": "+fmt.Sprintf(format, args...))
	}
}

// see checks that f.Block belongs to f.Method and folds the hook into
// the digest; in is the hook's instruction index in f.Block, or -1.
func (o *blockCheck) see(kind uint64, f *vm.Frame, in int) bool {
	if !f.Method.HasBlock(f.Block) {
		o.fail(f, "hook %d: Frame.Block is not a block of the method", kind)
		return false
	}
	o.hooks++
	for _, x := range []uint64{kind, uint64(f.Block.GID), uint64(in)} {
		o.digest = (o.digest ^ x) * 1099511628211
	}
	return true
}

// index returns the position of in in b.Instrs, or -1.
func index(b *ir.Block, in *ir.Instr) int {
	for i := range b.Instrs {
		if &b.Instrs[i] == in {
			return i
		}
	}
	return -1
}

func (o *blockCheck) OnEnter(t *vm.Thread, f *vm.Frame) {
	o.depth = max(o.depth, t.Depth())
	if o.see(1, f, -1) && f.Block != f.Method.Entry() {
		o.fail(f, "OnEnter at %s, not the entry", f.Block.Name())
	}
}

func (o *blockCheck) OnExit(_ *vm.Thread, f *vm.Frame) {
	if o.see(2, f, -1) && f.Block.Instrs[len(f.Block.Instrs)-1].Op != ir.OpReturn {
		o.fail(f, "OnExit at %s, which does not return", f.Block.Name())
	}
}

func (o *blockCheck) OnTransfer(_ *vm.Thread, f *vm.Frame, in *ir.Instr, _ int) {
	if !o.see(3, f, index(f.Block, in)) {
		return
	}
	if in != &f.Block.Instrs[len(f.Block.Instrs)-1] {
		o.fail(f, "OnTransfer's %s is not %s's terminator", in.Op, f.Block.Name())
	}
	if o.transfers++; o.transfers%256 == 0 {
		o.stamps = append(o.stamps, o.v.Now())
	}
}

func (o *blockCheck) OnCheck(_ *vm.Thread, f *vm.Frame, in *ir.Instr, _ bool) {
	if i := index(f.Block, in); o.see(4, f, i) && i < 0 {
		o.fail(f, "OnCheck's %s is not in %s", in.Op, f.Block.Name())
	}
}

func (o *blockCheck) OnProbe(_ *vm.Thread, f *vm.Frame, p *ir.Probe) {
	i := -1
	for j := range f.Block.Instrs {
		if f.Block.Instrs[j].Probe == p {
			i = j
		}
	}
	if o.see(5, f, i) && i < 0 {
		o.fail(f, "OnProbe's probe %d is not in %s", p.ID, f.Block.Name())
	}
}

func (o *blockCheck) OnYield(_ *vm.Thread, f *vm.Frame) {
	if !o.see(6, f, -1) {
		return
	}
	for _, in := range f.Block.Instrs {
		if in.Op == ir.OpYield {
			return
		}
	}
	o.fail(f, "OnYield in %s, which has no yieldpoint", f.Block.Name())
}

// sparseBlockCheck is blockCheck with a sparse event mask: checks, and
// every other class at a wake deadline 5,000 cycles after each
// delivered hook, so yield wakes and the episode-boundary transfers and
// exits are delivered too.
type sparseBlockCheck struct {
	blockCheck
	next uint64
}

func (o *sparseBlockCheck) Events() vm.EventMask { return vm.EvCheck }
func (o *sparseBlockCheck) NextWake() uint64 {
	if now := o.v.Now(); o.next <= now {
		o.next = now + 5000
	}
	return o.next
}

// probeCheck wraps a probe handler and checks that the frame handed to
// it holds the probe at Block.Instrs[PC].
type probeCheck struct {
	h   vm.ProbeHandler
	bad *[]string
}

func (h probeCheck) HandleProbe(ev *vm.ProbeEvent) {
	f := ev.Thread.Top()
	if f.PC < 0 || f.PC >= len(f.Block.Instrs) || f.Block.Instrs[f.PC].Probe != ev.Probe {
		if len(*h.bad) < 5 {
			*h.bad = append(*h.bad, fmt.Sprintf("probe %d is not at %s:%d", ev.Probe.ID, f.Block.Name(), f.PC))
		}
	}
	h.h.HandleProbe(ev)
}

// hookRun is one run of TestHooksSeeCurrentBlock's matrix.
type hookRun struct {
	err   error
	stats vm.Stats
	obs   *blockCheck
	bad   []string
}

// runHooks runs res once with fresh runtimes, every handler wrapped in
// a probeCheck, under observer kind "none", "all" or "sparse".
func runHooks(res *compile.Result, cfg vm.Config, kind string, reference bool) hookRun {
	var r hookRun
	_, handlers := res.NewRuntimes()
	for i, h := range handlers {
		if h != nil {
			handlers[i] = probeCheck{h, &r.bad}
		}
	}
	cfg.Handlers, cfg.Reference, cfg.Trigger = handlers, reference, trigger.NewCounter(97)
	var sparse *sparseBlockCheck
	switch kind {
	case "all":
		r.obs = &blockCheck{}
		cfg.Observer = r.obs
	case "sparse":
		sparse = &sparseBlockCheck{}
		r.obs = &sparse.blockCheck
		cfg.Observer = sparse
	}
	v := vm.New(res.Prog, cfg)
	if r.obs != nil {
		r.obs.v = v
	}
	_, r.err = v.Run()
	r.stats = v.Stats()
	if r.obs != nil {
		r.bad = append(r.bad, r.obs.bad...)
	}
	return r
}

// requireSameTrap requires both runs to trap with reason want at the
// same Method, Block and PC.
func requireSameTrap(t *testing.T, label string, fast, ref hookRun, want string) {
	t.Helper()
	var fe, re *vm.RuntimeError
	if !errors.As(fast.err, &fe) || !errors.As(ref.err, &re) || !strings.Contains(re.Reason, want) {
		t.Fatalf("%s: fast %v, reference %v; want %q traps", label, fast.err, ref.err, want)
	}
	if fe.Reason != re.Reason || fe.Method != re.Method || fe.Block != re.Block || fe.PC != re.PC {
		t.Fatalf("%s: fast trapped %v, reference %v", label, fast.err, ref.err)
	}
	if fast.stats != ref.stats {
		t.Fatalf("%s: fast %+v, reference %+v", label, fast.stats, ref.stats)
	}
}

// TestHooksSeeCurrentBlock pins Frame.Block wherever something reads
// it, now that a chained transfer leaves it stale. The ten suite
// programs, instrumented and exhaustive or sampled under Full- or
// No-Duplication, run on both dispatchers under no observer, an
// all-events observer and a sparse one, each with every probe handler
// wrapped: every hook sees the current block (blockCheck), with the
// same digest on both dispatchers for the all-events observer, and
// every handler sees its probe at Block.Instrs[PC]. A cycle budget
// crossed at a chained transfer and a stack overflow (a trap at the
// first call that would reach the deepest stack) report the same
// Method, Block and PC on both dispatchers.
func TestHooksSeeCurrentBlock(t *testing.T) {
	variations := []struct {
		name string
		fw   *core.Options
	}{
		{"exhaustive", nil},
		{"full", &core.Options{Variation: core.FullDuplication}},
		{"nodup", &core.Options{Variation: core.NoDuplication}},
	}
	for _, b := range bench.Suite() {
		for _, va := range variations {
			t.Run(b.Name+"/"+va.name, func(t *testing.T) {
				res, err := compile.Compile(b.Build(0.01), compile.Options{
					Instrumenters: []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}},
					Framework:     va.fw,
				})
				if err != nil {
					t.Fatal(err)
				}
				cfg := vm.Config{MaxCycles: 1 << 34}
				var runs [2]hookRun
				var all *blockCheck
				for _, kind := range []string{"none", "all", "sparse"} {
					for i, reference := range []bool{false, true} {
						runs[i] = runHooks(res, cfg, kind, reference)
						if runs[i].err != nil || len(runs[i].bad) > 0 {
							t.Fatalf("%s observer, reference %v: %v %q", kind, reference, runs[i].err, runs[i].bad)
						}
					}
					if runs[0].stats != runs[1].stats {
						t.Fatalf("%s observer: fast %+v, reference %+v", kind, runs[0].stats, runs[1].stats)
					}
					if kind != "all" {
						continue
					}
					if runs[0].obs.digest != runs[1].obs.digest || runs[0].obs.hooks != runs[1].obs.hooks {
						t.Fatalf("all-events observer: fast saw %d hooks, reference %d, or other blocks", runs[0].obs.hooks, runs[1].obs.hooks)
					}
					all = runs[1].obs
				}
				// The reference's transfer stamps are the cycles after a
				// terminator: a budget one below one of them is first
				// exceeded there, which the fast path checks when it
				// transfers and the reference before the target's first
				// instruction.
				if len(all.stamps) == 0 || all.depth < 2 {
					t.Fatalf("%d transfer stamps, stack depth %d", len(all.stamps), all.depth)
				}
				cfg.MaxCycles = all.stamps[len(all.stamps)/2] - 1
				requireSameTrap(t, "budget", runHooks(res, cfg, "none", false), runHooks(res, cfg, "none", true), "cycle budget exhausted")
				// The first call that would reach the deepest stack traps.
				cfg = vm.Config{MaxCycles: 1 << 34, MaxStack: all.depth - 1}
				requireSameTrap(t, "stack", runHooks(res, cfg, "none", false), runHooks(res, cfg, "none", true), "stack overflow")
			})
		}
	}
}
