package telemetry_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/oracle"
	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// chromeDoc mirrors the subset of the Chrome trace-event object format
// the tests validate.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   *uint64        `json:"ts"`
		Pid  *int           `json:"pid"`
		Tid  *int           `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// decodeChrome unmarshals and structurally validates an export: every
// event needs a name, a legal phase, and (for non-metadata phases) a
// timestamp and thread.
func decodeChrome(t *testing.T, data []byte) *chromeDoc {
	t.Helper()
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no traceEvents")
	}
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			t.Fatalf("traceEvents[%d] has no name", i)
		}
		switch e.Ph {
		case "B", "E", "i":
			if e.Ts == nil || e.Pid == nil || e.Tid == nil {
				t.Fatalf("traceEvents[%d] (%s %q) missing ts/pid/tid", i, e.Ph, e.Name)
			}
		case "M":
		default:
			t.Fatalf("traceEvents[%d] has unknown phase %q", i, e.Ph)
		}
	}
	return &doc
}

func TestTraceRecordsAndExports(t *testing.T) {
	res := buildProgram(t, 64)
	tr := telemetry.NewTrace(1 << 16)
	out := run(t, res, tr, tr)

	if tr.Threads() == 0 || tr.Total(0) == 0 {
		t.Fatal("trace recorded no events")
	}
	if tr.TotalDrops() != 0 {
		t.Fatalf("oversized ring dropped %d events", tr.TotalDrops())
	}

	// The event stream must cover the full vocabulary and agree with the
	// run's own counters where they correspond one-to-one.
	var byKind [8]uint64
	events := tr.ThreadEvents(0)
	for _, e := range events {
		byKind[e.Kind]++
	}
	for _, k := range []telemetry.EventKind{
		telemetry.EvEnter, telemetry.EvExit, telemetry.EvCheckPolled,
		telemetry.EvCheckFired, telemetry.EvDupEnter, telemetry.EvDupExit,
		telemetry.EvProbe, telemetry.EvYield,
	} {
		if byKind[k] == 0 {
			t.Errorf("no %s events recorded", k)
		}
	}
	s := out.Stats
	if got := byKind[telemetry.EvCheckPolled] + byKind[telemetry.EvCheckFired]; got != s.Checks {
		t.Errorf("check events = %d, Stats.Checks = %d", got, s.Checks)
	}
	if byKind[telemetry.EvCheckFired] != s.CheckFires {
		t.Errorf("sample events = %d, Stats.CheckFires = %d", byKind[telemetry.EvCheckFired], s.CheckFires)
	}
	if byKind[telemetry.EvYield] != s.Yields {
		t.Errorf("yield events = %d, Stats.Yields = %d", byKind[telemetry.EvYield], s.Yields)
	}
	if byKind[telemetry.EvDupEnter] != s.DupEntries {
		t.Errorf("dup-enter events = %d, Stats.DupEntries = %d", byKind[telemetry.EvDupEnter], s.DupEntries)
	}
	if byKind[telemetry.EvDupEnter] != byKind[telemetry.EvDupExit] {
		t.Errorf("dup spans unbalanced: %d enters, %d exits",
			byKind[telemetry.EvDupEnter], byKind[telemetry.EvDupExit])
	}

	// Timestamps are cycle-domain and non-decreasing within a thread.
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("timestamps went backwards at event %d: %d < %d",
				i, events[i].Cycle, events[i-1].Cycle)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeChrome(t, buf.Bytes())
	if doc.OtherData["clockDomain"] != "vm-cycles" {
		t.Errorf("otherData.clockDomain = %v, want vm-cycles", doc.OtherData["clockDomain"])
	}
	if doc.OtherData["eventsDropped"] != float64(0) {
		t.Errorf("otherData.eventsDropped = %v, want 0", doc.OtherData["eventsDropped"])
	}
}

// TestTraceWraparound pins the flight-recorder contract: a full ring
// overwrites oldest events, drop accounting is exact, the retained
// window is exactly the tail of the unbounded stream, and the export is
// still valid Chrome trace JSON.
func TestTraceWraparound(t *testing.T) {
	res := buildProgram(t, 64)
	const smallCap = 64 // power of two: used exactly

	big := telemetry.NewTrace(1 << 20)
	run(t, res, big, big)
	small := telemetry.NewTrace(smallCap)
	run(t, res, small, small)

	if big.TotalDrops() != 0 {
		t.Fatalf("big ring dropped %d events; test needs the full stream", big.TotalDrops())
	}
	full := big.ThreadEvents(0)
	if uint64(len(full)) != big.Total(0) {
		t.Fatalf("big ring retained %d of %d events", len(full), big.Total(0))
	}
	if small.Total(0) != big.Total(0) {
		t.Fatalf("runs diverged: small saw %d events, big saw %d", small.Total(0), big.Total(0))
	}
	if big.Total(0) <= smallCap {
		t.Fatalf("program too small: only %d events, need > %d for wraparound", big.Total(0), smallCap)
	}

	wantDrops := big.Total(0) - smallCap
	if got := small.Drops(0); got != wantDrops {
		t.Fatalf("Drops(0) = %d, want exactly %d", got, wantDrops)
	}
	if got := small.TotalDrops(); got != wantDrops {
		t.Fatalf("TotalDrops() = %d, want %d", got, wantDrops)
	}
	retained := small.ThreadEvents(0)
	if len(retained) != smallCap {
		t.Fatalf("retained %d events, want %d", len(retained), smallCap)
	}
	if !reflect.DeepEqual(retained, full[len(full)-smallCap:]) {
		t.Fatal("retained window is not the tail of the full event stream")
	}

	var buf bytes.Buffer
	if err := small.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeChrome(t, buf.Bytes())
	if got := doc.OtherData["eventsDropped"]; got != float64(wantDrops) {
		t.Errorf("otherData.eventsDropped = %v, want %d", got, wantDrops)
	}
}

// TestOracleComposesWithTrace proves -verify and -trace stack: running
// the invariant oracle behind a MultiObserver with a trace recorder
// leaves the oracle's verdict and event count unchanged.
func TestOracleComposesWithTrace(t *testing.T) {
	res := buildProgram(t, 64)

	alone := oracle.New()
	outAlone := run(t, res, alone)
	if err := alone.Finish(outAlone.Stats); err != nil {
		t.Fatalf("oracle alone: %v", err)
	}

	composed := oracle.New()
	tr := telemetry.NewTrace(1 << 12)
	outBoth := run(t, res, vm.CombineObservers(composed, tr), tr)
	if err := composed.Finish(outBoth.Stats); err != nil {
		t.Fatalf("oracle composed with trace: %v", err)
	}

	if alone.Events() != composed.Events() {
		t.Errorf("oracle events changed under composition: %d vs %d",
			alone.Events(), composed.Events())
	}
	if alone.ExpectedPropertyViolations() != composed.ExpectedPropertyViolations() {
		t.Errorf("expected-violation count changed under composition: %d vs %d",
			alone.ExpectedPropertyViolations(), composed.ExpectedPropertyViolations())
	}
	if !reflect.DeepEqual(outAlone, outBoth) {
		t.Error("run result changed when the trace recorder was added")
	}
	if tr.Total(0) == 0 {
		t.Error("composed trace recorded nothing")
	}
}

// observedRun is one run's trace and convergence output.
type observedRun struct {
	chrome []byte
	points []telemetry.ConvergencePoint
	res    *vm.Result
	fused  uint64
}

// runObserved compiles prog under fw and runs it with a trace recorder
// and a convergence recorder installed together, on the fast path or
// the reference dispatcher.
func runObserved(t *testing.T, prog *ir.Program, fw *core.Options, trig trigger.Trigger, reference bool) observedRun {
	t.Helper()
	cr, err := compile.Compile(prog, compile.Options{
		Instrumenters: []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}},
		Framework:     fw,
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr := telemetry.NewTrace(0)
	conv := telemetry.NewConvergence(1<<14, 0, func() []*profile.Profile {
		out := make([]*profile.Profile, len(cr.Runtimes))
		for i, rt := range cr.Runtimes {
			out[i] = rt.Profile()
		}
		return out
	})
	v := vm.New(cr.Prog, vm.Config{
		Trigger:   trig,
		Handlers:  cr.Handlers,
		Observer:  vm.CombineObservers(tr, conv),
		Reference: reference,
		MaxCycles: 1 << 36,
	})
	tr.SetClock(v)
	conv.SetClock(v)
	out, err := v.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return observedRun{buf.Bytes(), conv.Points(), out, v.FusionStats().Instrs}
}

// TestTraceConvergenceDifferential pins the two declared telemetry
// consumers to the reference dispatcher, which ignores event masks and
// delivers every event. Across the suite × framework variations × two
// triggers, a trace recorder and a convergence recorder installed
// together must write the same Chrome JSON and take every snapshot at
// the same cycle with the same profile entries on both dispatchers,
// while the fast run retires at least 99% of its instructions on fused
// streams.
func TestTraceConvergenceDifferential(t *testing.T) {
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
		{"timer", func() trigger.Trigger { return trigger.NewTimer(20011) }},
	}
	for _, b := range bench.Suite() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, va := range variations {
				for _, tg := range triggers {
					name := b.Name + "/" + va.name + "/" + tg.name
					fast := runObserved(t, b.Build(0.005), va.fw, tg.new(), false)
					ref := runObserved(t, b.Build(0.005), va.fw, tg.new(), true)
					if share := float64(fast.fused) / float64(fast.res.Stats.Instrs); share < 0.99 {
						t.Errorf("%s: fast run retired %.2f%% of its instructions fused, want >= 99%%", name, 100*share)
					}
					if fast.res.Return != ref.res.Return || fast.res.Stats != ref.res.Stats {
						t.Errorf("%s: result differs from the reference:\n  fast: %+v\n  ref:  %+v",
							name, fast.res.Stats, ref.res.Stats)
					}
					if !bytes.Equal(fast.chrome, ref.chrome) {
						t.Errorf("%s: Chrome trace differs from the reference's", name)
					}
					if len(fast.points) != len(ref.points) {
						t.Errorf("%s: %d snapshots, reference took %d", name, len(fast.points), len(ref.points))
						continue
					}
					for i, p := range fast.points {
						q := ref.points[i]
						if p.Cycle != q.Cycle {
							t.Errorf("%s: snapshot %d at cycle %d, reference at %d", name, i, p.Cycle, q.Cycle)
							continue
						}
						for k := range p.Profiles {
							if !reflect.DeepEqual(p.Profiles[k].Entries(), q.Profiles[k].Entries()) {
								t.Errorf("%s: snapshot %d profile %d differs from the reference's", name, i, k)
							}
						}
					}
				}
			}
		})
	}
}
