package oracle_test

import (
	"testing"

	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/ir"
	"instrsample/internal/oracle"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// FuzzVariations is the framework-level fuzzer: a random program runs
// under all four variations, each on both dispatchers with the runtime
// oracle installed. Every run must (a) leave the oracle's invariants
// intact and (b) produce bit-identical Results across dispatchers — the
// observer hooks must not perturb either one. trigSel picks the trigger
// family (including the fault injectors), interval its rate, and
// iterBudget the counted-iterations budget.
func FuzzVariations(f *testing.F) {
	f.Add(uint64(1), uint16(3), uint16(0), uint16(0))
	f.Add(uint64(2), uint16(1), uint16(1), uint16(4))
	f.Add(uint64(7), uint16(977), uint16(3), uint16(0))
	f.Add(uint64(11), uint16(5), uint16(4), uint16(8))
	f.Add(uint64(13), uint16(64), uint16(5), uint16(2))
	f.Add(uint64(42), uint16(9), uint16(2), uint16(0))
	// Fusion-leaning seeds: loop-heavy single-thread programs (even seeds)
	// where fused streams cover most of the execution, under the trigger
	// families whose checks interleave with fused blocks most often.
	f.Add(uint64(6), uint16(2), uint16(0), uint16(0))
	f.Add(uint64(20), uint16(33), uint16(3), uint16(0))
	f.Add(uint64(58), uint16(4), uint16(5), uint16(3))
	f.Fuzz(func(t *testing.T, seed uint64, interval, trigSel, iterBudget uint16) {
		if interval == 0 {
			interval = 1
		}
		newTrig := func() trigger.Trigger {
			switch trigSel % 6 {
			case 0:
				return trigger.NewCounter(int64(interval))
			case 1:
				return trigger.NewPerThread(int64(interval))
			case 2:
				return trigger.NewRandomized(int64(interval), int64(interval)/2, seed|1)
			case 3:
				return trigger.NewTimer(uint64(interval) * 16)
			case 4:
				return trigger.NewFaultyTimer(uint64(interval)*16, uint64(interval)*8, int64(trigSel%32)-16, seed|1)
			default:
				return trigger.NewRetuner([]int64{int64(interval), 1, int64(interval) * 4}, 11)
			}
		}
		prog := ir.RandomProgram(seed, ir.RandomProgramConfig{WithThreads: seed%2 == 1})
		for _, variation := range []core.Variation{
			core.FullDuplication, core.PartialDuplication, core.NoDuplication, core.Hybrid,
		} {
			opts := frameworkOpts(variation)()
			if variation == core.Hybrid {
				opts.Framework.HybridThreshold = int(trigSel%4) + 1
			}
			opts.Framework.CountedIterations = iterBudget > 0
			res, err := compile.Compile(prog, opts)
			if err != nil {
				t.Fatalf("%s: compile: %v", variation, err)
			}
			var outs [2]*vm.Result
			var errs [2]error
			for i, ref := range []bool{false, true} {
				o := oracle.New()
				out, err := vm.New(res.Prog, vm.Config{
					Trigger:    newTrig(),
					Handlers:   res.Handlers,
					MaxCycles:  1 << 32,
					Reference:  ref,
					Observer:   o,
					IterBudget: int64(iterBudget),
				}).Run()
				outs[i], errs[i] = out, err
				if err != nil {
					continue // a trap: legal, but must match across dispatchers
				}
				if ferr := o.Finish(out.Stats); ferr != nil {
					t.Fatalf("%s reference=%v: %v", variation, ref, ferr)
				}
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("%s: fast err %v, reference err %v", variation, errs[0], errs[1])
			}
			if errs[0] != nil {
				if errs[0].Error() != errs[1].Error() {
					t.Fatalf("%s: traps differ:\n  fast:      %v\n  reference: %v", variation, errs[0], errs[1])
				}
				continue
			}
			if outs[0].Stats != outs[1].Stats {
				t.Fatalf("%s: dispatchers diverge under oracle:\n  fast:      %+v\n  reference: %+v",
					variation, outs[0].Stats, outs[1].Stats)
			}
			if outs[0].Return != outs[1].Return {
				t.Fatalf("%s: returns diverge: %d vs %d", variation, outs[0].Return, outs[1].Return)
			}

			// Fused leg: the oracle declares no event mask, so it disables
			// superinstruction fusion and the runs above never exercise it. Re-run observer-free on the
			// fast path and the reference dispatcher and require the two
			// to agree; when the observed runs completed, the fused run
			// must also reproduce their Stats bit-for-bit (observer hooks
			// and fusion must both be invisible to the architected state).
			var fouts [2]*vm.Result
			var ferrs [2]error
			for i, ref := range []bool{false, true} {
				fouts[i], ferrs[i] = vm.New(res.Prog, vm.Config{
					Trigger:    newTrig(),
					Handlers:   res.Handlers,
					MaxCycles:  1 << 32,
					Reference:  ref,
					IterBudget: int64(iterBudget),
				}).Run()
			}
			if (ferrs[0] == nil) != (ferrs[1] == nil) {
				t.Fatalf("%s: fused err %v, reference err %v", variation, ferrs[0], ferrs[1])
			}
			if ferrs[0] != nil {
				if ferrs[0].Error() != ferrs[1].Error() {
					t.Fatalf("%s: fused traps differ:\n  fused:     %v\n  reference: %v", variation, ferrs[0], ferrs[1])
				}
			} else if fouts[0].Stats != fouts[1].Stats || fouts[0].Return != fouts[1].Return {
				t.Fatalf("%s: fused run diverges from reference:\n  fused:     %+v\n  reference: %+v",
					variation, fouts[0].Stats, fouts[1].Stats)
			}
			if errs[0] == nil && ferrs[0] == nil && fouts[0].Stats != outs[0].Stats {
				t.Fatalf("%s: fused observer-free run diverges from observed run:\n  fused:    %+v\n  observed: %+v",
					variation, fouts[0].Stats, outs[0].Stats)
			}
		}
	})
}
