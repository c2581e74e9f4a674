package vm_test

// Fusion edge-case tests: the superinstruction tier's correctness
// contract (DESIGN.md §7.6) says a fused run is observationally identical
// to the reference dispatcher even when execution stops *inside* a
// superinstruction — a trap in the first or second sub-op, a
// cancellation or quantum expiry at a fused-in yieldpoint — and that an
// installed observer degrades gracefully by disabling fusion outright.
// Each test here pins one of those seams with a hand-built program whose
// fused encoding is known, then requires bit-identical results between
// the fast path and the reference dispatcher.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/ir"
	"instrsample/internal/vm"
)

// pairRun executes prog under the fast path and the reference
// dispatcher, with base applied to both, and returns the VMs, results
// and errors in that order.
func pairRun(t *testing.T, prog func() *ir.Program, base vm.Config) ([2]*vm.VM, [2]*vm.Result, [2]error) {
	t.Helper()
	var ms [2]*vm.VM
	var rs [2]*vm.Result
	var errs [2]error
	for i, reference := range []bool{false, true} {
		cfg := base
		cfg.Reference = reference
		ms[i] = vm.New(prog(), cfg)
		rs[i], errs[i] = ms[i].Run()
	}
	return ms, rs, errs
}

// requireIdenticalStop asserts both runs stopped with the same error,
// which contains want, and left identical Stats.
func requireIdenticalStop(t *testing.T, ms [2]*vm.VM, errs [2]error, want string) {
	t.Helper()
	names := [2]string{"fast", "reference"}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got error %v, want one containing %q", names[i], err, want)
		}
	}
	if errs[0].Error() != errs[1].Error() {
		t.Fatalf("errors differ:\n  fast:      %v\n  reference: %v", errs[0], errs[1])
	}
	if ms[0].Stats() != ms[1].Stats() {
		t.Fatalf("stats diverge:\n  fast:      %+v\n  reference: %+v", ms[0].Stats(), ms[1].Stats())
	}
}

// requireIdenticalResult asserts both runs completed with the same
// Result: return value, output sequence and Stats.
func requireIdenticalResult(t *testing.T, rs [2]*vm.Result, errs [2]error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
	}
	if rs[0].Return != rs[1].Return || !slices.Equal(rs[0].Output, rs[1].Output) || rs[0].Stats != rs[1].Stats {
		t.Fatalf("results diverge:\n  fast:      ret=%d out=%v %+v\n  reference: ret=%d out=%v %+v",
			rs[0].Return, rs[0].Output, rs[0].Stats, rs[1].Return, rs[1].Output, rs[1].Stats)
	}
}

// TestFusedTrapInsidePair traps in each sub-op position of a memory
// superinstruction and requires the original pc, trap message and
// partial counters to be reconstructed exactly.
func TestFusedTrapInsidePair(t *testing.T) {
	cl := &ir.Class{Name: "C", FieldNames: []string{"f"}}
	// getfield on a null register followed by a const: fuses to
	// getfield+const, traps in the FIRST sub-op.
	first := func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = 8
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpGetField, Dst: 1, A: 2, Class: cl})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 3, Imm: 5})
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{done}})
		fb.At(done).Return(3)
		p := &ir.Program{Name: "trap1", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
	// new + putfield (valid) + getfield on null: the (putfield,getfield)
	// pair fuses and the trap fires in the SECOND sub-op, one past the
	// superinstruction's recorded pc.
	second := func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = 8
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpNew, Dst: 1, Class: cl})
		entry.Append(ir.Instr{Op: ir.OpPutField, A: 0, B: 1, Class: cl})
		entry.Append(ir.Instr{Op: ir.OpGetField, Dst: 2, A: 3, Class: cl})
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{done}})
		fb.At(done).Return(2)
		p := &ir.Program{Name: "trap2", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
	cases := []struct {
		name string
		prog func() *ir.Program
		kind string
		want string
	}{
		{"first-sub-op", first, "getfield+const", "getfield on null"},
		{"second-sub-op", second, "putfield+getfield", "getfield on null"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, _, errs := pairRun(t, tc.prog, vm.Config{MaxCycles: 1 << 20})
			requireIdenticalStop(t, ms, errs, tc.want)
			fs := ms[0].FusionStats()
			if fs.ByKind[tc.kind] == 0 {
				t.Fatalf("superinstruction %q never entered; fusion stats: %+v", tc.kind, fs)
			}
		})
	}
}

// latchLoop builds: entry(const,const,jmp) -> L(add,yield,jmp) ->
// M(cmplt,branch[L,done]) -> done(return). L fuses to the
// add+yield+jmp triple and M to cmplt+br, so every yieldpoint the
// program executes sits inside a superinstruction.
func latchLoop(iters int64) func() *ir.Program {
	return func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = 8
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 1})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 2, Imm: iters})
		loop := fb.Block("L")
		mid := fb.Block("M")
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{loop}})
		loop.Append(ir.Instr{Op: ir.OpAdd, Dst: 0, A: 0, B: 1})
		loop.Append(ir.Instr{Op: ir.OpYield})
		loop.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{mid}})
		mid.Append(ir.Instr{Op: ir.OpCmpLT, Dst: 3, A: 0, B: 2})
		mid.Append(ir.Instr{Op: ir.OpBranch, A: 3, Targets: []*ir.Block{loop, done}})
		fb.At(done).Return(0)
		p := &ir.Program{Name: "latch", Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
}

// TestFusedCancelMidSuperinstruction pre-fires a cancel token so the
// stop lands on the yieldpoint buried inside the add+yield+jmp triple:
// the fused path must reconstruct the same resume pc and flushed
// counters as the reference dispatcher.
func TestFusedCancelMidSuperinstruction(t *testing.T) {
	prog := latchLoop(1 << 40) // effectively unbounded without cancel
	var ms [2]*vm.VM
	var errs [2]error
	for i, reference := range []bool{false, true} {
		tok := vm.NewCancel()
		tok.Fire()
		ms[i] = vm.New(prog(), vm.Config{MaxCycles: 1 << 20, Cancel: tok, Reference: reference})
		_, errs[i] = ms[i].Run()
	}
	requireIdenticalStop(t, ms, errs, "cancelled")
	for i, err := range errs {
		if !vm.IsCancelled(err) {
			t.Fatalf("config %d: got %v, want CancelError", i, err)
		}
	}
	if fs := ms[0].FusionStats(); fs.ByKind["add+yield+jmp"] == 0 {
		t.Fatalf("cancel did not land in the fused latch; fusion stats: %+v", fs)
	}
}

// TestFusedQuantumRotation drives the same latch loop to completion
// under small quanta, so the scheduler's quantum-expiry path repeatedly
// suspends execution at the yieldpoint inside the fused triple and
// resumes mid-block through the per-instruction loop. The fast path
// and the reference dispatcher must agree on the full Result.
func TestFusedQuantumRotation(t *testing.T) {
	const iters = 40
	for _, q := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("quantum=%d", q), func(t *testing.T) {
			ms, rs, errs := pairRun(t, latchLoop(iters), vm.Config{MaxCycles: 1 << 20, Quantum: q})
			requireIdenticalResult(t, rs, errs)
			if fs := ms[0].FusionStats(); fs.ByKind["add+yield+jmp"] < iters {
				t.Errorf("latch entered %d times fused, want >= %d", fs.ByKind["add+yield+jmp"], iters)
			}
		})
	}
}

// overflowLoop builds a counted loop whose body block L writes and
// reads register big:
//
//	entry: r1=1; r2=iters; r7=trapAt; jmp L
//	L:     r0=r0+r1; big=r0-r7; r5=r1/big; print big; yield; jmp M
//	M:     r3=r0<r2; br r3 [L, done]
//	done:  return r0
//
// Every block but done is pure. With big > 0x7FFF, L overflows the
// fused encoding and runs per instruction between two fused blocks.
// The division traps in the iteration where r0 == trapAt; a negative
// trapAt never traps. With threads > 1, main spawns threads-1 workers
// running the same loop, calls it itself, and joins them.
func overflowLoop(big ir.Reg, iters, trapAt int64, threads int) func() *ir.Program {
	return func() *ir.Program {
		lb := ir.NewFunc("loop", 0)
		lb.M.NumRegs = int(big) + 1
		entry := lb.EntryBlock()
		loop := lb.Block("L")
		mid := lb.Block("M")
		done := lb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 1})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 2, Imm: iters})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 7, Imm: trapAt})
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{loop}})
		loop.Append(ir.Instr{Op: ir.OpAdd, Dst: 0, A: 0, B: 1})
		loop.Append(ir.Instr{Op: ir.OpSub, Dst: big, A: 0, B: 7})
		loop.Append(ir.Instr{Op: ir.OpDiv, Dst: 5, A: 1, B: big})
		loop.Append(ir.Instr{Op: ir.OpPrint, A: big})
		loop.Append(ir.Instr{Op: ir.OpYield})
		loop.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{mid}})
		mid.Append(ir.Instr{Op: ir.OpCmpLT, Dst: 3, A: 0, B: 2})
		mid.Append(ir.Instr{Op: ir.OpBranch, A: 3, Targets: []*ir.Block{loop, done}})
		lb.At(done).Return(0)

		mb := ir.NewFunc("main", 0)
		mc := mb.At(mb.EntryBlock())
		var handles []ir.Reg
		for i := 1; i < threads; i++ {
			handles = append(handles, mc.Spawn(lb.M))
		}
		sum := mc.Call(lb.M)
		for _, h := range handles {
			sum = mc.Bin(ir.OpAdd, sum, mc.Join(h))
		}
		mc.Return(sum)
		p := &ir.Program{Name: "overflow", Funcs: []*ir.Method{lb.M, mb.M}, Main: mb.M}
		p.Seal()
		return p
	}
}

// TestFuseBlockOperandOverflow runs a loop whose body block uses a
// register beyond the fused encoding's int16 range end to end: to
// completion, with a trap inside the overflowing block, and with two
// threads rotating at its yieldpoint. The block must stay unfused (its
// pure neighbours still fuse) and every run must match the reference
// dispatcher bit for bit.
func TestFuseBlockOperandOverflow(t *testing.T) {
	const big, iters = 0x9C40, 40 // register 40000 > 0x7FFF
	cases := []struct {
		name    string
		trapAt  int64
		threads int
		quantum int
	}{
		{"complete", -1, 1, 0},
		{"trap", iters / 2, 1, 0},
		{"threads", -1, 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			turns := 0 // scheduling turns across both runs
			cfg := vm.Config{MaxCycles: 1 << 24, Quantum: tc.quantum, Sched: func(int) { turns++ }}
			ms, rs, errs := pairRun(t, overflowLoop(big, iters, tc.trapAt, tc.threads), cfg)
			if tc.threads > 1 && turns < 2*iters {
				t.Fatalf("%d scheduling turns over both runs; the quantum never rotated at L's yieldpoint", turns)
			}
			if tc.trapAt >= 0 {
				requireIdenticalStop(t, ms, errs, "division by zero at loop:L(b1):2")
			} else {
				requireIdenticalResult(t, rs, errs)
			}
			// entry and M fuse, L does not.
			if fs := ms[0].FusionStats(); fs.FusedBlocks != 2 || fs.Instrs == 0 {
				t.Fatalf("want exactly entry and M fused and run, got %+v", fs)
			}
			// Control: the same program with a small register fuses L too.
			ctl := vm.New(overflowLoop(8, iters, tc.trapAt, tc.threads)(), cfg)
			_, _ = ctl.Run() // the trap case traps; only the stream count matters here
			if fs := ctl.FusionStats(); fs.FusedBlocks != 3 {
				t.Fatalf("control run fused %d blocks, want 3", fs.FusedBlocks)
			}
		})
	}
}

// noopObserver is the cheapest possible observer: its mere installation
// must disable fusion (graceful degradation) without changing results.
type noopObserver struct{}

func (noopObserver) OnEnter(*vm.Thread, *vm.Frame)                    {}
func (noopObserver) OnExit(*vm.Thread, *vm.Frame)                     {}
func (noopObserver) OnTransfer(*vm.Thread, *vm.Frame, *ir.Instr, int) {}
func (noopObserver) OnCheck(*vm.Thread, *vm.Frame, *ir.Instr, bool)   {}
func (noopObserver) OnProbe(*vm.Thread, *vm.Frame, *ir.Probe)         {}
func (noopObserver) OnYield(*vm.Thread, *vm.Frame)                    {}

// TestObserverDisablesFusion pins the degradation choice documented in
// DESIGN.md §7.6: with an observer installed the fast path runs zero
// fused blocks, and the observed run's results still match the fused
// run.
func TestObserverDisablesFusion(t *testing.T) {
	prog := latchLoop(100)
	plain := vm.New(prog(), vm.Config{MaxCycles: 1 << 20})
	pres, perr := plain.Run()
	if perr != nil {
		t.Fatalf("plain run: %v", perr)
	}
	if fs := plain.FusionStats(); fs.FusedBlocks == 0 || fs.Instrs == 0 {
		t.Fatalf("control run did not fuse: %+v", fs)
	}
	obs := vm.New(prog(), vm.Config{MaxCycles: 1 << 20, Observer: noopObserver{}})
	ores, oerr := obs.Run()
	if oerr != nil {
		t.Fatalf("observed run: %v", oerr)
	}
	if fs := obs.FusionStats(); fs.FusedBlocks != 0 || fs.Supers != 0 || fs.Covered != 0 ||
		fs.BlockRuns != 0 || fs.Dispatches != 0 || fs.Instrs != 0 || fs.Fused != 0 || len(fs.ByKind) != 0 {
		t.Fatalf("observer did not disable fusion: %+v", fs)
	}
	if ores.Return != pres.Return || obs.Stats() != plain.Stats() {
		t.Fatalf("observed run diverged:\n  fused:    ret=%d %+v\n  observed: ret=%d %+v",
			pres.Return, plain.Stats(), ores.Return, obs.Stats())
	}
}

// TestFusedFractionCompress is the coverage-floor sanity check behind
// BENCH_PR7.json's fused-fraction column: on the compress kernel the
// fused tier must carry more than half the executed instructions, and
// superinstructions more than a quarter of the fused tier.
func TestFusedFractionCompress(t *testing.T) {
	res, err := compile.Compile(bench.Compress(0.01), compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := vm.New(res.Prog, vm.Config{Handlers: res.Handlers, MaxCycles: 1 << 33})
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	fs, total := m.FusionStats(), m.Stats().Instrs
	if total == 0 || fs.Instrs == 0 {
		t.Fatalf("no instructions attributed: fs=%+v total=%d", fs, total)
	}
	if share := float64(fs.Instrs) / float64(total); share < 0.5 {
		t.Errorf("fused tier carried %.1f%% of instructions, want >= 50%%", share*100)
	}
	if frac := float64(fs.Fused) / float64(fs.Instrs); frac < 0.25 {
		t.Errorf("fused-dispatch fraction %.1f%%, want >= 25%%", frac*100)
	}
}

// TestFusionDifferentialSweep is the seeded sweep behind `make
// fusion-smoke`: random programs (threaded and not) across a variant
// subset, healthy and cancelled, fused always compared bit-for-bit
// against the reference dispatcher. It subsumes nothing — the broad
// differential tests already compare the fast path with the reference —
// but gives CI a single -run target that forces fusion through every
// variation under -race.
func TestFusionDifferentialSweep(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	variants := diffVariants()
	picks := []int{0, 2, 5} // plain, full-dup, timer
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			prog := ir.RandomProgram(seed, ir.RandomProgramConfig{WithThreads: s%2 == 0})
			if err := prog.Verify(ir.VerifyBase); err != nil {
				t.Fatalf("generated program invalid: %v", err)
			}
			for _, pi := range picks {
				v := variants[pi]
				ref, refRT, rerr := diffRun(t, prog, v, seed, true)
				fast, fastRT, ferr := diffRun(t, prog, v, seed, false)
				if (ferr == nil) != (rerr == nil) {
					t.Fatalf("%s: fused err %v, reference err %v", v.name, ferr, rerr)
				}
				if ferr != nil {
					if ferr.Error() != rerr.Error() {
						t.Fatalf("%s: traps differ:\n  fused:     %v\n  reference: %v", v.name, ferr, rerr)
					}
				} else {
					compareRuns(t, v.name+"/fused", fast, ref, fastRT, refRT)
				}

				// Cancelled leg: a pre-fired token must stop both
				// dispatchers at the same observation point with
				// identical partial counters (fused path included).
				var stats [2]vm.Stats
				var msgs [2]string
				for i, reference := range []bool{false, true} {
					tok := vm.NewCancel()
					tok.Fire()
					m, _, _, cerr := cancelRun(t, prog, v, seed, reference, tok, nil)
					if cerr == nil {
						t.Fatalf("%s ref=%v: run survived pre-fired cancel", v.name, reference)
					}
					msgs[i] = cerr.Error()
					stats[i] = m.Stats()
				}
				if msgs[0] != msgs[1] {
					t.Errorf("%s: cancel errors differ:\n  fused:     %s\n  reference: %s", v.name, msgs[0], msgs[1])
				}
				if stats[0] != stats[1] {
					t.Errorf("%s: cancel stats diverge\n  fused:     %+v\n  reference: %+v", v.name, stats[0], stats[1])
				}
			}
		})
	}
}
