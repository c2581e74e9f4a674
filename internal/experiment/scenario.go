package experiment

import (
	"context"
	"fmt"

	"instrsample/internal/core"
	"instrsample/internal/oracle"
	"instrsample/internal/scenario"
	"instrsample/internal/vm"
)

// ScenarioSweep is the scenario-engine artifact: a seeded workload
// family (internal/scenario) expanded into a deterministic program
// set, every program compiled under all four framework variations and
// run as a correctness probe — fast dispatcher recorded under the
// runtime oracle, then the recording replayed on both dispatchers and
// differentially checked bit-identical (trigger decisions, schedule
// decisions, all Stats counters). A row only prints if its cell's
// oracle stayed clean and its replays verified, so the table is
// evidence the four variations stay correct across a *space* of
// programs rather than the ten fixed benchmarks.
//
// Cells are pure and cache-keyed by the family's spec hash, the
// program index and the usual opts/trigger vocabulary; the family is
// re-expanded inside each cell, so cells share no IR.
func ScenarioSweep(cfg Config) (*Table, error) {
	// Scale sizes the family: 1.0 sweeps 4 programs, the soak scales up.
	count := 1 + int(3*cfg.Scale)
	if count < 1 {
		count = 1
	}
	if count > 12 {
		count = 12
	}
	fam := scenario.DefaultFamily(0x5ced5, count)
	if err := fam.Validate(); err != nil {
		return nil, err
	}
	famHash, err := fam.Hash()
	if err != nil {
		return nil, err
	}
	variations := []core.Variation{
		core.FullDuplication, core.PartialDuplication, core.NoDuplication, core.Hybrid,
	}

	bt := cfg.NewBatch()
	refs := make([][]*Ref, count) // [program][variation]
	for i := 0; i < count; i++ {
		refs[i] = make([]*Ref, len(variations))
		for vi, v := range variations {
			opts := OptsSpec{
				Instr:     []string{"call-edge"},
				Framework: &core.Options{Variation: v},
				Verify:    true,
			}
			trig := RandomizedTrigger(97, 43, fam.ProgramSeed(i)|1)
			refs[i][vi] = bt.Add(cfg.scenarioCell(fam, i, opts, trig))
		}
	}
	if err := bt.Run(); err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "scenario-sweep",
		Title: fmt.Sprintf("Scenario sweep: family %q seed %#x (%d programs), oracle + record/replay", fam.Name, fam.Seed, count),
		Header: []string{"Program", "Variation", "Cycles", "Instrs", "Samples",
			"Sched picks", "Oracle events", "Replay"},
	}
	for i := 0; i < count; i++ {
		for vi, v := range variations {
			out := refs[i][vi].R()
			t.AddRow(
				fmt.Sprintf("%s/%d", fam.Name, i),
				v.String(),
				fmt.Sprintf("%d", out.Stats.Cycles),
				fmt.Sprintf("%d", out.Stats.Instrs),
				fmt.Sprintf("%d", out.Stats.CheckFires),
				fmt.Sprintf("%d", out.Aux["sched-picks"]),
				fmt.Sprintf("%d", out.Aux["oracle-events"]),
				"bit-identical x2",
			)
			cfg.progress("scenario-sweep %s/%d %s done", fam.Name, i, v)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("family hash (replay receipt): %s", famHash),
		"each cell records the fast-dispatcher run under the runtime oracle, then",
		"replays the recorded trigger + schedule decisions on both dispatchers;",
		"any divergence in decisions, Stats counters, return value or output fails",
		"the cell, so every printed row is a verified determinism witness")
	return t, nil
}

// scenarioCell builds the pure, cache-keyed cell for one (family
// program, variation) probe. The key carries the family spec hash, so
// editing the family spec invalidates exactly its own cells.
func (c Config) scenarioCell(fam *scenario.Family, idx int, o OptsSpec, t TriggerSpec) Cell {
	key := fmt.Sprintf("scenario fam=%s idx=%d %s %s replay",
		fam.SpecHash()[:16], idx, o.Key(), t.Key())
	// Copy the family so the cell closure is self-contained.
	f := *fam
	return Cell{Key: key, Run: func(ctx context.Context) (*CellResult, error) {
		return runScenarioCell(ctx, &f, idx, o, t)
	}}
}

// runScenarioCell compiles family program idx under the spec'd options,
// records the fast-dispatcher run with the oracle installed, replays
// the recording on both dispatchers, and fails unless everything is
// bit-identical and the oracle is clean.
func runScenarioCell(ctx context.Context, fam *scenario.Family, idx int, o OptsSpec, t TriggerSpec) (*CellResult, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	label := fmt.Sprintf("scenario %s/%d", fam.Name, idx)
	prog, err := fam.Program(idx)
	if err != nil {
		return nil, err
	}
	cr, err := o.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	orc := oracle.New()
	rec, live, err := scenario.Record(cr.Prog, vm.Config{
		Trigger:  t.New(),
		Handlers: cr.Handlers,
		Observer: orc,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: record: %w", label, err)
	}
	if err := orc.Finish(live.Stats); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", label, err)
	}
	for _, ref := range []bool{false, true} {
		if _, err := scenario.Replay(cr.Prog, vm.Config{
			Handlers:  cr.Handlers,
			Reference: ref,
		}, rec); err != nil {
			return nil, fmt.Errorf("%s (reference=%v): %w", label, ref, err)
		}
	}
	res := &CellResult{
		Stats:              live.Stats,
		CodeSize:           cr.CodeSize,
		CheckingCodeSize:   cr.CheckingCodeSize,
		DuplicatedCodeSize: cr.DuplicatedCodeSize,
		Work:               cr.Work,
		Return:             live.Return,
		Output:             live.Output,
		Aux: map[string]int64{
			"oracle-events":      int64(orc.Events()),
			"oracle-expected-p1": int64(orc.ExpectedPropertyViolations()),
			"sched-picks":        int64(rec.Sched.Picks),
			"trigger-polls":      int64(rec.Trigger.Polls),
			"trigger-fires":      int64(rec.Trigger.Fires),
		},
	}
	for _, rt := range cr.Runtimes {
		res.Profiles = append(res.Profiles, rt.Profile())
	}
	return res, nil
}
