package telemetry_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

func TestMeterMatchesVMStats(t *testing.T) {
	res := buildProgram(t, 64)
	reg := telemetry.NewRegistry()
	m := telemetry.NewMeter(reg, "counter/50", 2000, nil)
	out := run(t, res, m, m)
	m.Finish()

	s := out.Stats
	for _, tc := range []struct {
		name string
		want uint64
	}{
		{telemetry.MetricEntries, s.MethodEntries},
		{telemetry.MetricChecks, s.Checks},
		{telemetry.MetricSamples + ".counter/50", s.CheckFires},
		{telemetry.MetricProbes, s.Probes},
		{telemetry.MetricYields, s.Yields},
		{telemetry.MetricDupEntries, s.DupEntries},
	} {
		if got := reg.Counter(tc.name).Value(); got != tc.want {
			t.Errorf("%s = %d, want %d (vm stats)", tc.name, got, tc.want)
		}
	}
	if got := reg.Counter(telemetry.MetricExits).Value(); got == 0 {
		t.Error("no method exits counted")
	}
	if got := reg.Counter(telemetry.MetricOverhead).Value(); got == 0 {
		t.Error("no overhead cycles accounted")
	}
	dup := reg.Counter(telemetry.MetricDupCycles).Value()
	if dup == 0 || dup >= s.Cycles {
		t.Errorf("dup cycles = %d, want in (0, %d)", dup, s.Cycles)
	}
	ppm := reg.Gauge(telemetry.MetricDupResidency).Value()
	if ppm <= 0 || ppm >= 1_000_000 {
		t.Errorf("dup residency = %d ppm, want in (0, 1e6)", ppm)
	}
	if got := reg.Gauge(telemetry.MetricCycles).Value(); uint64(got) != s.Cycles {
		t.Errorf("final cycle gauge = %d, want %d", got, s.Cycles)
	}

	rows := m.Series().Rows
	if len(rows) < 2 {
		t.Fatalf("series captured %d rows, want several", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].At <= rows[i-1].At {
			t.Fatalf("series timestamps not increasing at row %d", i)
		}
	}
	var buf bytes.Buffer
	if err := m.Series().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasPrefix(header, "cycle,") || !strings.Contains(header, telemetry.MetricChecks) {
		t.Errorf("unexpected CSV header %q", header)
	}
}

// TestMeterDeterministic pins the cycle-domain clock: two identical runs
// produce byte-identical series.
func TestMeterDeterministic(t *testing.T) {
	series := func() *telemetry.Series {
		res := buildProgram(t, 64)
		reg := telemetry.NewRegistry()
		m := telemetry.NewMeter(reg, "counter/50", 2000, nil)
		run(t, res, m, m)
		m.Finish()
		return m.Series()
	}
	a, b := series(), series()
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical runs produced different series")
	}
}

// eventCounter is an all-events observer installed after a meter: it
// declares no event mask, so the VM delivers it every event and runs the
// fast path unfused. It counts events the way a meter fed every event
// would, and checks each Series row the meter captures against those
// counts — an account of the meter's VM-read counters that shares
// nothing with their derivation.
type eventCounter struct {
	t       *testing.T
	name    string
	m       *telemetry.Meter
	samples string
	cost    *vm.CostModel
	counts  map[string]uint64
	rows    int
	failed  bool
}

// verify compares every row captured since the last call with the
// counts so far.
func (c *eventCounter) verify() {
	s := c.m.Series()
	for ; c.rows < len(s.Rows) && !c.failed; c.rows++ {
		row := s.Rows[c.rows]
		for i, col := range s.Columns {
			switch col {
			case telemetry.MetricEntries, telemetry.MetricExits, telemetry.MetricChecks, c.samples,
				telemetry.MetricProbes, telemetry.MetricYields, telemetry.MetricDupEntries, telemetry.MetricOverhead:
				if uint64(row.Values[i]) != c.counts[col] {
					c.failed = true
					c.t.Errorf("%s: row %d at cycle %d: %s = %d, counted %d",
						c.name, c.rows, row.At, col, row.Values[i], c.counts[col])
				}
			}
		}
	}
}

func (c *eventCounter) OnEnter(*vm.Thread, *vm.Frame) {
	c.counts[telemetry.MetricEntries]++
	c.verify()
}

func (c *eventCounter) OnExit(*vm.Thread, *vm.Frame) {
	c.counts[telemetry.MetricExits]++
	c.verify()
}

func (c *eventCounter) OnTransfer(_ *vm.Thread, f *vm.Frame, in *ir.Instr, target int) {
	if f.Block.Kind != ir.KindDuplicated && in.Targets[target].Kind == ir.KindDuplicated {
		c.counts[telemetry.MetricDupEntries]++
	}
	c.verify()
}

func (c *eventCounter) OnCheck(_ *vm.Thread, _ *vm.Frame, _ *ir.Instr, fired bool) {
	c.counts[telemetry.MetricChecks]++
	c.counts[telemetry.MetricOverhead] += uint64(c.cost.Check)
	if fired {
		c.counts[c.samples]++
	}
	c.verify()
}

func (c *eventCounter) OnProbe(_ *vm.Thread, _ *vm.Frame, p *ir.Probe) {
	c.counts[telemetry.MetricProbes]++
	c.counts[telemetry.MetricOverhead] += uint64(p.Cost)
	c.verify()
}

func (c *eventCounter) OnYield(*vm.Thread, *vm.Frame) {
	c.counts[telemetry.MetricYields]++
	c.counts[telemetry.MetricOverhead] += uint64(c.cost.Yield)
	c.verify()
}

// meterRun is one metered run's observable output.
type meterRun struct {
	series []byte
	res    *vm.Result
	fused  uint64
}

// runMetered compiles prog under fw and runs it with a fresh meter —
// followed by an eventCounter when counted — on the fast path or the
// reference dispatcher. It returns the meter's JSON series, the Result
// and the fused-tier instruction count.
func runMetered(t *testing.T, name string, prog *ir.Program, fw *core.Options, trig trigger.Trigger,
	interval uint64, counted, reference bool) meterRun {
	t.Helper()
	res, err := compile.Compile(prog, compile.Options{
		Instrumenters: []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}},
		Framework:     fw,
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := telemetry.NewMeter(telemetry.NewRegistry(), trig.Name(), interval, nil)
	var counter *eventCounter
	obs := vm.Observer(m)
	if counted {
		counter = &eventCounter{t: t, name: name, m: m, samples: telemetry.MetricSamples + "." + trig.Name(),
			cost: vm.DefaultCostModel(), counts: make(map[string]uint64)}
		obs = vm.CombineObservers(m, counter)
	}
	v := vm.New(res.Prog, vm.Config{
		Trigger:   trig,
		Handlers:  res.Handlers,
		Observer:  obs,
		Reference: reference,
		MaxCycles: 1 << 36,
	})
	m.SetClock(v)
	out, err := v.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	m.Finish()
	if counter != nil {
		counter.verify()
	}
	var buf bytes.Buffer
	if err := m.Series().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return meterRun{buf.Bytes(), out, v.FusionStats().Instrs}
}

// TestMeterSeriesDifferential pins the sampled meter to the every-event
// meter. Across the suite × framework variations × triggers × capture
// intervals, three runs must agree byte for byte on the Series and on
// the Result and Stats: the meter alone on the fast path (fused, woken
// only at probes, episode boundaries and capture deadlines), the meter
// beside an all-events observer (unfused, every event delivered; that
// observer also recounts every captured row from the events), and the
// meter on the reference dispatcher.
func TestMeterSeriesDifferential(t *testing.T) {
	variations := []struct {
		name string
		fw   *core.Options
	}{
		{"none", nil},
		{"full", &core.Options{Variation: core.FullDuplication}},
		{"partial", &core.Options{Variation: core.PartialDuplication}},
		{"nodup", &core.Options{Variation: core.NoDuplication}},
		{"hybrid", &core.Options{Variation: core.Hybrid}},
	}
	triggers := []struct {
		name string
		new  func() trigger.Trigger
	}{
		{"counter", func() trigger.Trigger { return trigger.NewCounter(997) }},
		{"perthread", func() trigger.Trigger { return trigger.NewPerThread(997) }},
		{"random", func() trigger.Trigger { return trigger.NewRandomized(997, 200, 7) }},
		{"timer", func() trigger.Trigger { return trigger.NewTimer(20011) }},
	}
	for _, b := range bench.Suite() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, va := range variations {
				for _, tr := range triggers {
					for _, interval := range []uint64{1 << 10, 1 << 16} {
						name := fmt.Sprintf("%s/%s/%s/%d", b.Name, va.name, tr.name, interval)
						run := func(counted, reference bool) meterRun {
							return runMetered(t, name, b.Build(0.005), va.fw, tr.new(), interval, counted, reference)
						}
						alone, beside, ref := run(false, false), run(true, false), run(false, true)
						if alone.fused == 0 {
							t.Errorf("%s: the meter alone ran no instruction fused", name)
						}
						for _, other := range []struct {
							label string
							r     meterRun
						}{{"beside an all-events observer", beside}, {"on the reference dispatcher", ref}} {
							if !bytes.Equal(alone.series, other.r.series) {
								t.Errorf("%s: series differs from the meter %s", name, other.label)
							}
							if alone.res.Return != other.r.res.Return || alone.res.Stats != other.r.res.Stats ||
								!slices.Equal(alone.res.Output, other.r.res.Output) {
								t.Errorf("%s: result differs from the run %s:\n  alone: %+v\n  other: %+v",
									name, other.label, alone.res.Stats, other.r.res.Stats)
							}
						}
					}
				}
			}
		})
	}
}

func TestConvergenceSnapshotsProfiles(t *testing.T) {
	res := buildProgram(t, 256)
	// Discover the run length, then snapshot at an interval that yields
	// a handful of points.
	probe := run(t, res, nil)
	interval := probe.Stats.Cycles / 8

	build := func() []telemetry.ConvergencePoint {
		res := buildProgram(t, 256)
		src := func() []*profile.Profile {
			out := make([]*profile.Profile, len(res.Runtimes))
			for i, rt := range res.Runtimes {
				out[i] = rt.Profile()
			}
			return out
		}
		conv := telemetry.NewConvergence(interval, 0, src)
		run(t, res, conv, conv)
		return conv.Points()
	}

	pts := build()
	if len(pts) < 3 {
		t.Fatalf("got %d convergence points, want several", len(pts))
	}
	for i, pt := range pts {
		if len(pt.Profiles) != 1 {
			t.Fatalf("point %d has %d profiles, want 1", i, len(pt.Profiles))
		}
		if i > 0 {
			if pt.Cycle <= pts[i-1].Cycle {
				t.Fatalf("cycles not increasing at point %d", i)
			}
			if pt.Profiles[0].Total() < pts[i-1].Profiles[0].Total() {
				t.Fatalf("sample totals shrank at point %d", i)
			}
		}
	}
	// Clones must be snapshots, not aliases of the live profile.
	last := pts[len(pts)-1].Profiles[0]
	if last.Total() == 0 {
		t.Fatal("final snapshot is empty")
	}

	// Profiles carry Labeler funcs, which DeepEqual can't compare across
	// runs — compare cycle stamps and profile contents semantically.
	again := build()
	if len(again) != len(pts) {
		t.Fatalf("reruns disagree on point count: %d vs %d", len(pts), len(again))
	}
	for i := range pts {
		a, b := pts[i], again[i]
		if a.Cycle != b.Cycle || a.Profiles[0].Total() != b.Profiles[0].Total() ||
			profile.Overlap(a.Profiles[0], b.Profiles[0]) != 100 {
			t.Fatalf("reruns diverged at point %d (cycle %d vs %d)", i, a.Cycle, b.Cycle)
		}
	}
}

func TestConvergenceMaxSnapshots(t *testing.T) {
	res := buildProgram(t, 256)
	src := func() []*profile.Profile { return nil }
	conv := telemetry.NewConvergence(100, 5, src)
	run(t, res, conv, conv)
	if got := len(conv.Points()); got != 5 {
		t.Errorf("recorded %d points with max 5", got)
	}
}
