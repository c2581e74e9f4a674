package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/ir"
	"instrsample/internal/telemetry"
	"instrsample/internal/vm"
)

// instrumentationNames is every name NewInstrumenter knows.
var instrumentationNames = []string{
	"call-edge", "field-access", "path", "cct", "cct-sampled", "edge", "block-count", "value", "receiver",
}

// sharingTriggers are the triggers the sharing tests rotate through.
var sharingTriggers = []TriggerSpec{
	CounterTrigger(97),
	{Kind: "perthread", Interval: 89},
	RandomizedTrigger(101, 10, 3),
	TimerTrigger(20011),
	NeverTrigger(),
	AlwaysTrigger(),
}

// sharingObservers are the observer legs: none, the meter (the mask the
// service's SSE publisher declares, which keeps the run fused), and the
// invariant oracle (which takes every event).
var sharingObservers = []string{"none", "meter", "oracle"}

// sharedRun is one run's outcome: the cell result and, on the meter
// leg, the captured series.
type sharedRun struct {
	res    *CellResult
	series *telemetry.Series
}

// runCompiled runs cr once under trigger t with the named observer.
func runCompiled(cr *compile.Result, o OptsSpec, t TriggerSpec, observer string) (sharedRun, error) {
	vs := VMSpec{Trigger: t}
	var meter *telemetry.Meter
	switch observer {
	case "meter":
		meter = telemetry.NewMeter(telemetry.NewRegistry(), t.Name(), 4096, nil)
		vs.Observers = []vm.Observer{meter}
	case "oracle":
		o.Verify = true
	}
	res, err := Prepare(context.Background(), cr, o, vs).Execute()
	if err != nil {
		return sharedRun{}, err
	}
	out := sharedRun{res: res}
	if meter != nil {
		meter.Finish()
		out.series = meter.Series()
	}
	return out, nil
}

// sameRun reports how got differs from want: the result fields, every
// profile's entries and entry labels, and the meter series.
func sameRun(got, want sharedRun) error {
	g, w := *got.res, *want.res
	g.Profiles, w.Profiles = nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("result %+v, want %+v", g, w)
	}
	if len(got.res.Profiles) != len(want.res.Profiles) {
		return fmt.Errorf("%d profiles, want %d", len(got.res.Profiles), len(want.res.Profiles))
	}
	for i, gp := range got.res.Profiles {
		wp := want.res.Profiles[i]
		ge, we := gp.Entries(), wp.Entries()
		if gp.Name != wp.Name || gp.Total() != wp.Total() || !reflect.DeepEqual(ge, we) {
			return fmt.Errorf("profile %s: %d events, total %d; want %s: %d events, total %d",
				gp.Name, len(ge), gp.Total(), wp.Name, len(we), wp.Total())
		}
		for _, e := range ge {
			if gl, wl := gp.Labeler(e.Key), wp.Labeler(e.Key); gl != wl {
				return fmt.Errorf("profile %s: key %d labelled %q, want %q", gp.Name, e.Key, gl, wl)
			}
		}
	}
	if !reflect.DeepEqual(got.series, want.series) {
		return errors.New("meter series differ")
	}
	return nil
}

// TestSharedProgramConcurrentRuns: one compiled program backs several
// concurrent VMs (under -race in make race). Every suite benchmark
// under every variation is compiled once with all nine
// instrumentations, then run by three concurrent VMs, one per observer
// leg, whose triggers rotate so that each leg meets every trigger over
// the matrix. The program's IR digest is the same before and after, and
// every run's result, Stats, profiles (entries and labels) and meter
// series equal those of the same run on a fresh compile.
func TestSharedProgramConcurrentRuns(t *testing.T) {
	for _, name := range instrumentationNames {
		if _, err := NewInstrumenter(name); err != nil {
			t.Fatal(err)
		}
	}
	variations := []string{"", "full", "partial", "nodup", "hybrid"}
	k := 0
	for _, b := range bench.Suite() {
		for _, variation := range variations {
			fw, err := Framework(variation, false)
			if err != nil {
				t.Fatal(err)
			}
			o := OptsSpec{Instr: instrumentationNames, Framework: fw}
			build := func() *ir.Program { return b.Build(0.005) }
			cr, err := o.Compile(build())
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, variation, err)
			}
			before := compile.Digest(cr)
			type leg struct {
				trig     TriggerSpec
				observer string
			}
			var legs []leg
			for j, observer := range sharingObservers {
				legs = append(legs, leg{sharingTriggers[(k+2*j)%len(sharingTriggers)], observer})
			}
			k++
			shared := make([]sharedRun, len(legs))
			errs := make([]error, len(legs))
			var wg sync.WaitGroup
			for i, l := range legs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					shared[i], errs[i] = runCompiled(cr, o, l.trig, l.observer)
				}()
			}
			wg.Wait()
			if after := compile.Digest(cr); after != before {
				t.Fatalf("%s/%s: runs changed the shared program's IR digest", b.Name, variation)
			}
			for i, l := range legs {
				label := fmt.Sprintf("%s/%s %s %s", b.Name, variation, l.trig.Key(), l.observer)
				if errs[i] != nil {
					t.Fatalf("%s: %v", label, errs[i])
				}
				fresh, err := o.Compile(build())
				if err != nil {
					t.Fatalf("%s: fresh compile: %v", label, err)
				}
				want, err := runCompiled(fresh, o, l.trig, l.observer)
				if err != nil {
					t.Fatalf("%s: fresh run: %v", label, err)
				}
				if err := sameRun(shared[i], want); err != nil {
					t.Fatalf("%s: shared program: %v", label, err)
				}
			}
		}
	}
}

// TestProgramKeyFields: the trigger, the interval, the oracle, the
// iteration budget, the i-cache and the cycle cap do not change a
// cell's compiled program; its instrumentations, framework options,
// checks and inlining do.
func TestProgramKeyFields(t *testing.T) {
	full := &core.Options{Variation: core.FullDuplication}
	base := OptsSpec{Instr: []string{"call-edge"}, Framework: full}
	const prog = "bench=db scale=0.1"
	key := programKey(prog, base)
	same := base
	same.Verify, same.IterBudget = true, 7
	if got := programKey(prog, same); got != key {
		t.Errorf("verify and iteration budget moved the key: %q vs %q", got, key)
	}
	for name, o := range map[string]OptsSpec{
		"instr":  {Instr: []string{"field-access"}, Framework: full},
		"fw":     {Instr: []string{"call-edge"}, Framework: &core.Options{Variation: core.PartialDuplication}},
		"yp":     {Instr: []string{"call-edge"}, Framework: &core.Options{Variation: core.FullDuplication, YieldpointOpt: true}},
		"checks": {ChecksOnly: &core.ChecksOnly{Backedges: true}},
		"inline": {Instr: []string{"call-edge"}, Framework: full, Inline: true},
	} {
		if programKey(prog, o) == key {
			t.Errorf("%s: a compile field did not move the key", name)
		}
	}
	if programKey("bench=db scale=0.2", base) == key {
		t.Error("the program identity did not move the key")
	}
	for _, icache := range []bool{false, true} {
		cfg := Config{Scale: 0.1, ICache: icache}
		for _, tr := range sharingTriggers {
			if c := cfg.Cell("db", base, tr); !strings.HasPrefix(c.Key, prog+" ") {
				t.Fatalf("cell key %q does not start with the program identity %q", c.Key, prog)
			}
		}
	}
}

// smallProgram compiles one suite benchmark at scale 0.01 under o.
func smallProgram(t *testing.T, name string, o OptsSpec) func() (*compile.Result, error) {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return func() (*compile.Result, error) { return o.Compile(b.Build(0.01)) }
}

// lookup is Engine.Compiled's program-store lookup, with the key given.
func lookup(tab *store[*compile.Result], key string, mk func() (*compile.Result, error)) (*compile.Result, error) {
	c, hit := tab.join(key, "")
	if !hit {
		cr, err := mk()
		return tab.finish(key, c, cr, err)
	}
	<-c.ready
	return c.val, c.err
}

// TestProgramTableSingleFlight: concurrent lookups of one key compile
// once and share the result.
func TestProgramTableSingleFlight(t *testing.T) {
	tab := newStore(programBudget, programBytes)
	mk := smallProgram(t, "db", OptsSpec{Instr: []string{"call-edge"}})
	var compiles atomic.Int32
	release := make(chan struct{})
	const n = 8
	got := make([]*compile.Result, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr, err := lookup(tab, "k", func() (*compile.Result, error) {
				compiles.Add(1)
				<-release
				return mk()
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = cr
		}()
	}
	for tab.Stats().Hits+tab.Stats().Misses < n {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if c := compiles.Load(); c != 1 {
		t.Fatalf("%d concurrent lookups compiled %d times, want once", n, c)
	}
	for _, cr := range got {
		if cr == nil || cr != got[0] {
			t.Fatal("lookups returned different programs")
		}
	}
	if s := tab.Stats(); s.Misses != 1 || s.Hits != n-1 || s.Entries != 1 || s.Bytes != programBytes(got[0]) {
		t.Fatalf("stats %+v, want 1 miss, %d hits, one program of %d bytes", s, n-1, programBytes(got[0]))
	}
}

// TestProgramTableFailureNotRetained: a failed compile reaches its
// waiters but is not kept, so the next lookup compiles again.
func TestProgramTableFailureNotRetained(t *testing.T) {
	tab := newStore(programBudget, programBytes)
	boom := errors.New("boom")
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := lookup(tab, "k", func() (*compile.Result, error) { <-release; return nil, boom })
		first <- err
	}()
	for tab.Stats().Misses == 0 {
		runtime.Gosched()
	}
	waiter := make(chan error, 1)
	go func() {
		_, err := lookup(tab, "k", func() (*compile.Result, error) { return nil, errors.New("waiter compiled") })
		waiter <- err
	}()
	for tab.Stats().Hits == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-first; err != boom {
		t.Fatalf("first lookup: %v, want boom", err)
	}
	if err := <-waiter; err != boom {
		t.Fatalf("waiter: %v, want the owner's boom", err)
	}
	if s := tab.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("failed compile retained: %+v", s)
	}
	mk := smallProgram(t, "db", OptsSpec{})
	compiled := false
	cr, err := lookup(tab, "k", func() (*compile.Result, error) { compiled = true; return mk() })
	if err != nil || cr == nil || !compiled {
		t.Fatalf("lookup after a failure: compiled=%v err=%v, want a fresh compile", compiled, err)
	}
}

// TestProgramTableEvictsLeastRecentlyUsed: with room for two programs,
// a third evicts the one used least recently, and the evicted
// configuration recompiles to the same digest.
func TestProgramTableEvictsLeastRecentlyUsed(t *testing.T) {
	o := OptsSpec{Instr: paperInstr(), Framework: &core.Options{Variation: core.FullDuplication}}
	mks := map[string]func() (*compile.Result, error){}
	digests := map[string][32]byte{}
	var sizes []int64
	for _, name := range []string{"compress", "db", "jess"} {
		mks[name] = smallProgram(t, name, o)
		cr, err := mks[name]()
		if err != nil {
			t.Fatal(err)
		}
		digests[name] = compile.Digest(cr)
		sizes = append(sizes, programBytes(cr))
	}
	// compress and db fit; compress, db and jess do not, whichever two
	// remain afterwards.
	budget := sizes[0] + sizes[1]
	if budget < sizes[0]+sizes[2] || budget < sizes[1]+sizes[2] {
		budget = max(sizes[0]+sizes[2], sizes[1]+sizes[2])
	}
	if budget >= sizes[0]+sizes[1]+sizes[2] {
		t.Fatalf("sizes %v leave no budget that holds two programs but not three", sizes)
	}
	tab := newStore(budget, programBytes)
	look := func(name string) *compile.Result {
		t.Helper()
		cr, err := lookup(tab, name, mks[name])
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	look("compress")
	look("db")
	look("compress") // db is now the least recently used
	look("jess")
	s := tab.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != sizes[0]+sizes[2] {
		t.Fatalf("stats %+v, want db evicted and compress and jess (%d bytes) kept", s, sizes[0]+sizes[2])
	}
	look("compress")
	if tab.Stats().Misses != 3 {
		t.Fatalf("compress was evicted: %+v", tab.Stats())
	}
	if cr := look("db"); compile.Digest(cr) != digests["db"] {
		t.Fatal("the evicted configuration recompiled to a different digest")
	}
	if s := tab.Stats(); s.Misses != 4 || s.Bytes > budget {
		t.Fatalf("stats %+v: want db recompiled and at most %d bytes retained", s, budget)
	}
}

// TestEngineSharesCompiledProgram: cells that differ only in trigger
// and oracle, standard and convergence alike, compile once through the
// engine, with the same results as cells run without an engine, and the
// store's counters reach the attached registry.
func TestEngineSharesCompiledProgram(t *testing.T) {
	o := OptsSpec{Instr: paperInstr(), Framework: &core.Options{Variation: core.FullDuplication}}
	ov := o
	ov.Verify = true
	cells := func(cfg Config) []Cell {
		return []Cell{
			cfg.Cell("db", o, CounterTrigger(101)),
			cfg.Cell("db", o, CounterTrigger(997)),
			cfg.Cell("db", ov, TimerTrigger(30011)),
			cfg.ConvergenceCell("db", o, CounterTrigger(101), 50000),
		}
	}
	eng := NewEngine(2, nil)
	reg := telemetry.NewRegistry()
	eng.AttachMetrics(reg)
	cfg := Config{Scale: 0.02, ICache: true, Engine: eng}
	shared := cells(cfg)
	got, err := eng.Do(cfg, shared)
	if err != nil {
		t.Fatal(err)
	}
	n := len(shared)
	if s := eng.ProgramStats(); s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("program stats %+v, want one compile for %d cells", s, n)
	}
	if reg.Counter(MetricProgramMiss).Value() != 1 || reg.Counter(MetricProgramHit).Value() != uint64(n-1) ||
		reg.Gauge(MetricProgramRetained).Value() != eng.ProgramStats().Bytes {
		t.Fatalf("registry: %v", reg.Snapshot())
	}
	for i, c := range cells(Config{Scale: 0.02, ICache: true}) {
		if c.Key != shared[i].Key {
			t.Fatalf("cell %d: key %q, want %q", i, shared[i].Key, c.Key)
		}
		want, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		g, w := *got[i], *want
		g.Snapshots, w.Snapshots = nil, nil
		if err := sameRun(sharedRun{res: &g}, sharedRun{res: &w}); err != nil {
			t.Errorf("cell %d: %v", i, err)
		}
		if len(got[i].Snapshots) != len(want.Snapshots) {
			t.Fatalf("cell %d: %d snapshots, want %d", i, len(got[i].Snapshots), len(want.Snapshots))
		}
		for j, sn := range got[i].Snapshots {
			ws := want.Snapshots[j]
			if sn.Cycle != ws.Cycle || len(sn.Profiles) != len(ws.Profiles) {
				t.Fatalf("cell %d snapshot %d: cycle %d, %d profiles; want %d, %d", i, j, sn.Cycle, len(sn.Profiles), ws.Cycle, len(ws.Profiles))
			}
			for k, p := range sn.Profiles {
				if !reflect.DeepEqual(p.Entries(), ws.Profiles[k].Entries()) {
					t.Fatalf("cell %d snapshot %d: profile %s differs", i, j, p.Name)
				}
			}
		}
	}
}
