package experiment

import (
	"context"
	"fmt"

	"instrsample/internal/adaptive"
	"instrsample/internal/core"
	"instrsample/internal/ir"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// adaptiveOpts is the adaptive ablation's compile configuration:
// continuously sampled call-edge profiling under the yieldpoint-optimized
// framework.
func adaptiveOpts() OptsSpec {
	return OptsSpec{
		Instr:     []string{"call-edge"},
		Framework: &core.Options{Variation: core.FullDuplication, YieldpointOpt: true},
	}
}

// adaptivePinnedCell measures the benchmark with every method pinned at
// the cheap baseline compilation level. It is a custom cell (the standard
// runner has no CostScale hook), but still deterministic and keyed, so it
// participates in memoization and the on-disk cache.
func adaptivePinnedCell(cfg Config, benchName string) Cell {
	key := fmt.Sprintf("bench=%s scale=%g icache=%v kind=adaptive-pinned",
		benchName, cfg.Scale, cfg.ICache)
	return Cell{Key: key, Run: func(ctx context.Context) (*CellResult, error) {
		build, err := BenchBuilder(benchName)
		if err != nil {
			return nil, err
		}
		prog := build(cfg.Scale)
		res, err := adaptiveOpts().Compile(prog)
		if err != nil {
			return nil, err
		}
		baseFactor := adaptive.DefaultLevels()[0].CostFactor
		vcfg := vm.Config{
			Trigger:   trigger.NewCounter(211),
			Handlers:  res.Handlers,
			ICache:    cfg.icache(),
			CostScale: func(*ir.Method) uint32 { return baseFactor },
		}
		if ctx != nil && ctx.Done() != nil {
			tok := vm.NewCancel()
			vcfg.Cancel = tok
			stop := context.AfterFunc(ctx, tok.Fire)
			defer stop()
		}
		out, err := vm.New(res.Prog, vcfg).Run()
		if err != nil {
			return nil, err
		}
		return &CellResult{Stats: out.Stats}, nil
	}}
}

// adaptiveOnlineCell measures the benchmark under the online controller:
// methods are promoted mid-run from the sampled call-edge profile. The
// promotion count and compile-cycle spend are returned through Aux.
func adaptiveOnlineCell(cfg Config, benchName string) Cell {
	key := fmt.Sprintf("bench=%s scale=%g icache=%v kind=adaptive-online",
		benchName, cfg.Scale, cfg.ICache)
	return Cell{Key: key, Run: func(ctx context.Context) (*CellResult, error) {
		build, err := BenchBuilder(benchName)
		if err != nil {
			return nil, err
		}
		prog := build(cfg.Scale)
		res, err := adaptiveOpts().Compile(prog)
		if err != nil {
			return nil, err
		}
		ctl := adaptive.NewController(res.Prog, res.Runtimes[0], adaptive.ControllerConfig{})
		vcfg := vm.Config{
			Trigger:   trigger.NewCounter(211),
			Handlers:  []vm.ProbeHandler{ctl},
			ICache:    cfg.icache(),
			CostScale: ctl.CostScale(),
		}
		if ctx != nil && ctx.Done() != nil {
			tok := vm.NewCancel()
			vcfg.Cancel = tok
			stop := context.AfterFunc(ctx, tok.Fire)
			defer stop()
		}
		out, err := vm.New(res.Prog, vcfg).Run()
		if err != nil {
			return nil, err
		}
		return &CellResult{
			Stats: out.Stats,
			Aux: map[string]int64{
				"promotions":     int64(len(ctl.Promotions())),
				"compile_cycles": int64(ctl.CompileCycles()),
			},
		}, nil
	}}
}

// AblationAdaptive runs the online multi-level recompilation controller
// (the Jalapeño adaptive system of the paper's citation [5], which this
// framework was built to feed) over the suite: every method starts at the
// cheap baseline level and is promoted mid-run from the continuously
// sampled call-edge profile under a cost–benefit test. Reported per
// benchmark: promotions made, compile cycles spent, and the end-to-end
// improvement over running everything at baseline — with the sampling
// framework's own overhead already included on both sides.
func AblationAdaptive(cfg Config) (*Table, error) {
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	bt := cfg.NewBatch()
	type row struct{ pinned, online *Ref }
	rows := make([]row, len(suite))
	for i, b := range suite {
		rows[i] = row{
			pinned: bt.Add(adaptivePinnedCell(cfg, b.Name)),
			online: bt.Add(adaptiveOnlineCell(cfg, b.Name)),
		}
	}
	if err := bt.Run(); err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "ablation-adaptive",
		Title: "Online multi-level recompilation driven by sampled profiles",
		Header: []string{"Benchmark", "Promotions", "Compile cycles",
			"All-baseline cycles", "Adapted cycles (incl. compile)", "Improvement (%)"},
	}
	var sumImp float64
	for i, b := range suite {
		pinned, online := rows[i].pinned.R(), rows[i].online.R()
		promotions := online.Aux["promotions"]
		compileCycles := uint64(online.Aux["compile_cycles"])
		adapted := online.Stats.Cycles + compileCycles
		imp := 100 * (1 - float64(adapted)/float64(pinned.Stats.Cycles))
		sumImp += imp
		t.AddRow(b.Name,
			fmt.Sprintf("%d", promotions),
			fmt.Sprintf("%d", compileCycles),
			fmt.Sprintf("%d", pinned.Stats.Cycles),
			fmt.Sprintf("%d", adapted),
			pct(imp))
		cfg.progress("ablation-adaptive %s: %d promotions, %.1f%% improvement",
			b.Name, promotions, imp)
	}
	t.AddRow("Average", "", "", "", "", pct(sumImp/float64(len(suite))))
	t.Notes = append(t.Notes,
		"methods promoted mid-run affect future invocations only (no on-stack",
		"replacement — the regime §1 designs for); sampling overhead included on both sides")
	return t, nil
}
