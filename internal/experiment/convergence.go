package experiment

import (
	"fmt"

	"instrsample/internal/core"
	"instrsample/internal/profile"
)

// ConvergenceBenchmark is the workload the convergence artifact profiles
// — javac, the same benchmark the paper uses for its call-edge profile
// illustration (Figure 7).
const ConvergenceBenchmark = "javac"

// ConvergenceInterval is the counter trigger interval driving samples.
const ConvergenceInterval = 1000

// convergenceCurvePoints is the nominal number of snapshots per run: the
// snapshot cadence is the baseline cycle count divided by this, so every
// variation yields roughly this many points (a few more, since sampled
// runs execute longer than the uninstrumented baseline).
const convergenceCurvePoints = 12

// Convergence produces the accuracy-convergence time series: how quickly
// each framework variation's sampled call-edge profile approaches the
// perfect profile as the program executes. Each variation runs once with
// a telemetry convergence recorder cloning the live profile on a fixed
// cycle cadence; every snapshot is scored with profile.Overlap against
// the perfect (exhaustive) profile, giving overlap-vs-cycles curves.
//
// The artifact runs in two waves: the snapshot cadence of the
// second-wave cells is derived from the first wave's baseline cycle
// count, exactly like Table 5 derives its timer period. Snapshots ride
// inside the cells, so the curves cache like every other artifact and
// the rendered table is byte-identical at any worker count.
func Convergence(cfg Config) (*Table, error) {
	callEdge := []string{"call-edge"}
	bt := cfg.NewBatch()
	base := bt.Cell(ConvergenceBenchmark, OptsSpec{}, NeverTrigger())
	perfect := bt.Cell(ConvergenceBenchmark, OptsSpec{Instr: callEdge}, NeverTrigger())
	if err := bt.Run(); err != nil {
		return nil, err
	}

	interval := base.R().Stats.Cycles / convergenceCurvePoints
	if interval == 0 {
		interval = 1
	}

	variations := []core.Variation{
		core.FullDuplication, core.PartialDuplication, core.NoDuplication, core.Hybrid,
	}
	cells := make([]*Ref, len(variations))
	for i, v := range variations {
		opts := OptsSpec{Instr: callEdge, Framework: &core.Options{Variation: v}}
		cells[i] = bt.Add(cfg.ConvergenceCell(
			ConvergenceBenchmark, opts, CounterTrigger(ConvergenceInterval), interval))
	}
	if err := bt.Run(); err != nil {
		return nil, err
	}

	pp := perfect.R().Profiles[0]
	t := &Table{
		ID: "convergence",
		Title: fmt.Sprintf("Call-edge profile accuracy (overlap %%) vs executed cycles, %s, counter/%d",
			ConvergenceBenchmark, ConvergenceInterval),
		Header: []string{"Cycles", "Full (%)", "Partial (%)", "No-Dup (%)", "Hybrid (%)"},
	}

	rows := 0
	for _, c := range cells {
		if n := len(c.R().Snapshots); n > rows {
			rows = n
		}
	}
	for row := 0; row < rows; row++ {
		line := []string{fmt.Sprintf("%d", uint64(row+1)*interval)}
		for _, c := range cells {
			snaps := c.R().Snapshots
			if row >= len(snaps) {
				// This variation's run ended before the boundary.
				line = append(line, "-")
				continue
			}
			line = append(line, pct(profile.Overlap(pp, snaps[row].Profiles[0])))
		}
		t.AddRow(line...)
	}
	final := []string{"end of run"}
	for i, c := range cells {
		ov := profile.Overlap(pp, c.R().Profiles[0])
		final = append(final, pct(ov))
		cfg.progress("convergence %s: %d snapshots, final overlap %.1f%% (%d samples)",
			variations[i], len(c.R().Snapshots), ov, c.R().Stats.CheckFires)
	}
	t.AddRow(final...)

	t.Notes = append(t.Notes,
		fmt.Sprintf("snapshot cadence %d cycles = baseline cycles / %d; rows are nominal boundaries (snapshots land at the first non-transfer observer hook at or past each boundary)", interval, convergenceCurvePoints),
		"\"-\" marks boundaries past a variation's end of run; sampled runs outlive the baseline by their overhead",
		"overlap is computed against the exhaustive call-edge profile (§4.4's accuracy metric, extended along the time axis)")
	return t, nil
}
