package experiment

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"instrsample/internal/core"
	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
	"instrsample/internal/vm"
)

// renderAll generates every artifact under cfg and concatenates the
// ASCII renderings in registry order.
func renderAll(t *testing.T, cfg Config) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range All() {
		tab, err := e.Gen(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sb.WriteString(tab.String())
	}
	return sb.String()
}

// TestParallelDeterminism is the tentpole acceptance check: every
// artifact rendered through a 1-worker engine must be byte-identical to
// the same artifacts rendered through an 8-worker engine shared by
// generators running in concurrent goroutines (the cmd/experiments
// shape). Run under -race this also exercises the engine, cache-less
// result store, and cell runners for data races.
func TestParallelDeterminism(t *testing.T) {
	serialCfg := smokeConfig()
	serialCfg.Engine = NewEngine(1, nil)
	serial := renderAll(t, serialCfg)

	parCfg := smokeConfig()
	parCfg.Engine = NewEngine(8, nil)
	all := All()
	outs := make([]string, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, e := range all {
		wg.Add(1)
		go func(i int, gen Generator) {
			defer wg.Done()
			tab, err := gen(parCfg)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = tab.String()
		}(i, e.Gen)
	}
	wg.Wait()
	var sb strings.Builder
	for i, e := range all {
		if errs[i] != nil {
			t.Fatalf("%s: %v", e.ID, errs[i])
		}
		sb.WriteString(outs[i])
	}
	if parallel := sb.String(); parallel != serial {
		t.Errorf("parallel rendering differs from serial (%d vs %d bytes)",
			len(parallel), len(serial))
	}
	if parCfg.Engine.ResultStats().Hits == 0 {
		t.Error("no memo hits: artifacts share cells, dedup should trigger")
	}
	if st := parCfg.Engine.Stats(); st.CacheHits != 0 {
		t.Errorf("cache hits %d without a cache", st.CacheHits)
	}
}

// TestEngineMemoDedup: N requests for one keyed cell run it once and all
// share the result.
func TestEngineMemoDedup(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	c := Cell{Key: "k1", Run: func(context.Context) (*CellResult, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		return &CellResult{Stats: vm.Stats{Cycles: 42}}, nil
	}}
	eng := NewEngine(4, nil)
	cells := make([]Cell, 10)
	for i := range cells {
		cells[i] = c
	}
	res, err := eng.Do(Config{}, cells)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("cell ran %d times, want 1", runs)
	}
	for i, r := range res {
		if r != res[0] {
			t.Errorf("result %d is not the shared result", i)
		}
	}
	if st, memo := eng.Stats(), eng.ResultStats(); st.CellsRun != 1 || memo.Hits != 9 {
		t.Errorf("stats %+v, result store %+v, want CellsRun 1 and 9 hits", st, memo)
	}
}

// TestEngineUnkeyedNotMemoized: cells with an empty key always execute.
func TestEngineUnkeyedNotMemoized(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	c := Cell{Run: func(context.Context) (*CellResult, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		return &CellResult{}, nil
	}}
	eng := NewEngine(2, nil)
	if _, err := eng.Do(Config{}, []Cell{c, c, c}); err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Errorf("unkeyed cell ran %d times, want 3", runs)
	}
}

// TestEngineErrorOrder: Do reports the first failing cell in input
// order, regardless of completion order.
func TestEngineErrorOrder(t *testing.T) {
	ok := Cell{Run: func(context.Context) (*CellResult, error) { return &CellResult{}, nil }}
	fail := func(i int) Cell {
		return Cell{Run: func(context.Context) (*CellResult, error) {
			return nil, fmt.Errorf("cell %d failed", i)
		}}
	}
	eng := NewEngine(4, nil)
	_, err := eng.Do(Config{}, []Cell{ok, fail(1), ok, fail(3)})
	if err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Errorf("got %v, want cell 1's error", err)
	}
}

// TestEngineErrorNotMemoized: a keyed failure propagates to its
// requesters but is not memoized — a later request for the same key runs
// the cell fresh. This is what keeps one job's cancellation from
// poisoning every later identical job in the profiling service.
func TestEngineErrorNotMemoized(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	boom := errors.New("boom")
	fail := true
	c := Cell{Key: "bad", Run: func(context.Context) (*CellResult, error) {
		mu.Lock()
		runs++
		shouldFail := fail
		mu.Unlock()
		if shouldFail {
			return nil, boom
		}
		return &CellResult{}, nil
	}}
	eng := NewEngine(4, nil)
	if _, err := eng.Do(Config{}, []Cell{c, c, c, c}); !errors.Is(err, boom) {
		t.Errorf("got %v, want boom", err)
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	res, err := eng.Do(Config{}, []Cell{c})
	if err != nil {
		t.Fatalf("retry after failure: %v (stale failure memoized?)", err)
	}
	if res[0] == nil {
		t.Fatal("retry returned nil result")
	}
}

// TestEngineWorkersFloor: worker counts below 1 are clamped.
func TestEngineWorkersFloor(t *testing.T) {
	if w := NewEngine(0, nil).Workers(); w != 1 {
		t.Errorf("Workers() = %d, want 1", w)
	}
	if w := NewEngine(-3, nil).Workers(); w != 1 {
		t.Errorf("Workers() = %d, want 1", w)
	}
}

// TestEngineSlowest: timings are sorted descending and capped at n, and
// an engine that resolves more than keptTimings unique cells retains
// exactly keptTimings timings.
func TestEngineSlowest(t *testing.T) {
	eng := NewEngine(1, nil)
	cells := keptTimings + 7
	for i := 0; i < cells; i++ {
		c := Cell{Key: fmt.Sprintf("k%d", i), Run: func(context.Context) (*CellResult, error) {
			return &CellResult{}, nil
		}}
		if _, err := eng.Do(Config{}, []Cell{c}); err != nil {
			t.Fatal(err)
		}
	}
	slow := eng.Slowest(3)
	if len(slow) != 3 {
		t.Fatalf("Slowest(3) returned %d entries", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Duration > slow[i-1].Duration {
			t.Errorf("timings not descending at %d", i)
		}
	}
	if got := eng.Stats().CellsRun; got != cells {
		t.Fatalf("CellsRun = %d, want %d", got, cells)
	}
	if n := len(eng.timings); n != keptTimings {
		t.Errorf("engine retains %d timings, want %d", n, keptTimings)
	}
	if n := len(eng.Slowest(0)); n != keptTimings {
		t.Errorf("Slowest(0) returned %d timings, want %d", n, keptTimings)
	}
}

// TestKeepSlowestMatchesFullSort: inserting timings one at a time keeps
// exactly the first k of a stable full sort in Slowest's order, ties on
// duration and on key included.
func TestKeepSlowestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 3, keptTimings} {
		var all, kept []CellTiming
		for i := 0; i < 500; i++ {
			ct := CellTiming{
				Key:      fmt.Sprintf("k%d", rng.Intn(20)),
				Duration: time.Duration(rng.Intn(30)),
				Probe:    time.Duration(i), // tells equal entries apart
			}
			all = append(all, ct)
			kept = keepSlowest(kept, ct, k)

			want := slices.Clone(all)
			slices.SortStableFunc(want, func(a, b CellTiming) int {
				if c := cmp.Compare(b.Duration, a.Duration); c != 0 {
					return c
				}
				return strings.Compare(a.Key, b.Key)
			})
			want = want[:min(len(want), k)]
			if !slices.Equal(kept, want) {
				t.Fatalf("k=%d after %d inserts:\n got %v\nwant %v", k, i+1, kept, want)
			}
		}
	}
}

// TestEngineDoContextCancel: cancelling the context unblocks a running
// DoContext — the in-flight cell sees ctx.Done and the call returns the
// cancellation error instead of hanging.
func TestEngineDoContextCancel(t *testing.T) {
	eng := NewEngine(1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	slow := Cell{Key: "slow", Run: func(ctx context.Context) (*CellResult, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	done := make(chan error, 1)
	go func() {
		_, err := eng.DoContext(ctx, Config{}, []Cell{slow})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DoContext did not return after cancel")
	}
}

// TestEngineMemoWaiterCancel: a requester waiting on another requester's
// memoized flight unblocks when its own context is cancelled, without
// cancelling the flight for the owner.
func TestEngineMemoWaiterCancel(t *testing.T) {
	eng := NewEngine(2, nil)
	release := make(chan struct{})
	started := make(chan struct{})
	c := Cell{Key: "shared", Run: func(ctx context.Context) (*CellResult, error) {
		close(started)
		<-release
		return &CellResult{}, nil
	}}
	ownerDone := make(chan error, 1)
	go func() {
		_, err := eng.Do(Config{}, []Cell{c})
		ownerDone <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.DoContext(ctx, Config{}, []Cell{c}); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter got %v, want context.Canceled", err)
	}
	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner failed: %v", err)
	}
}

// TestCellRunHonoursContext: a standard cell refuses to start under an
// already-cancelled context, and a context cancelled mid-run stops the
// VM with an error that is both a context cancellation and a vm
// cancellation (so callers can classify it either way).
func TestCellRunHonoursContext(t *testing.T) {
	cfg := Config{Scale: 0.05}
	c := cfg.Cell("compress", OptsSpec{}, NeverTrigger())
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := c.Run(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: got %v, want context.Canceled", err)
	}

	// Mid-run: the run itself signals once it passes cycle at, through
	// an observer that declares no event and one wake there (a
	// convergence recorder keeping one snapshot), and only then is the
	// context cancelled, from another goroutine as a daemon DELETE is.
	// The cell API has no observer hook, so the run is the cell's own
	// Prepare and Execute.
	const at = 1 << 16
	prog, err := BenchBuilder("compress")
	if err != nil {
		t.Fatal(err)
	}
	cr, err := OptsSpec{}.Compile(prog(1))
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{})
	signal := telemetry.NewConvergence(at, 1, func() []*profile.Profile { close(reached); return nil })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-reached:
			cancel()
		case <-ctx.Done():
		}
	}()
	run := Prepare(ctx, cr, OptsSpec{}, VMSpec{Trigger: NeverTrigger(), Observers: []vm.Observer{signal}})
	res, err := run.Execute()
	if err == nil {
		t.Fatalf("run finished (%d cycles) despite a cancel at cycle %d", res.Stats.Cycles, at)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: got %v, want wrapped context.Canceled", err)
	}
	var ce *vm.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-run cancel: %v does not wrap vm.CancelError", err)
	}
	if ce.Cycles < at {
		t.Errorf("cancelled at cycle %d, before the signal at %d", ce.Cycles, at)
	}
}

// TestEngineStageHooks: the engine reports memo-flight (with the owning
// request's Config.Owner as cause) to parked waiters, and cache-probe /
// run to the cell that executes.
func TestEngineStageHooks(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(2, cache)

	type call struct{ stage, cause string }
	var mu sync.Mutex
	calls := map[string][]call{}
	hook := func(who string) func(stage, cause string) {
		return func(stage, cause string) {
			mu.Lock()
			calls[who] = append(calls[who], call{stage, cause})
			mu.Unlock()
		}
	}

	started := make(chan struct{})
	release := make(chan struct{})
	owner := Cell{Key: "shared", Stage: hook("owner"),
		Run: func(context.Context) (*CellResult, error) {
			close(started)
			<-release
			return &CellResult{}, nil
		}}
	waiter := Cell{Key: "shared", Stage: hook("waiter"),
		Run: func(context.Context) (*CellResult, error) {
			t.Error("waiter ran instead of parking on the flight")
			return &CellResult{}, nil
		}}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := eng.Do(Config{Owner: "job-000001"}, []Cell{owner}); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		<-started // the owner's flight is registered before Run starts
		if _, err := eng.Do(Config{Owner: "job-000002"}, []Cell{waiter}); err != nil {
			t.Error(err)
		}
	}()
	// Let the owner finish once the waiter has joined its flight.
	for eng.ResultStats().Hits == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if got := calls["owner"]; len(got) != 2 ||
		got[0] != (call{"cache-probe", ""}) || got[1] != (call{"run", ""}) {
		t.Errorf("owner hook calls = %v, want cache-probe then run", got)
	}
	if got := calls["waiter"]; len(got) != 1 ||
		got[0] != (call{"memo-flight", "job-000001"}) {
		t.Errorf("waiter hook calls = %v, want memo-flight with owner job id", got)
	}
}

// TestEngineTimingSplit: CellTiming separates cache-probe from run
// time, and the two sum to the recorded total.
func TestEngineTimingSplit(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := Cell{Key: "split", Run: func(context.Context) (*CellResult, error) {
		time.Sleep(5 * time.Millisecond)
		return &CellResult{}, nil
	}}

	eng := NewEngine(1, cache)
	if _, err := eng.Do(Config{}, []Cell{c}); err != nil {
		t.Fatal(err)
	}
	miss := eng.Slowest(1)[0]
	if miss.Cached {
		t.Fatal("first resolution reported cached")
	}
	if miss.Exec < 5*time.Millisecond {
		t.Errorf("exec = %v, want >= 5ms", miss.Exec)
	}
	if miss.Probe+miss.Exec != miss.Duration {
		t.Errorf("probe %v + exec %v != total %v", miss.Probe, miss.Exec, miss.Duration)
	}

	// A second engine against the same cache hits on disk: all probe.
	eng2 := NewEngine(1, cache)
	if _, err := eng2.Do(Config{}, []Cell{c}); err != nil {
		t.Fatal(err)
	}
	hit := eng2.Slowest(1)[0]
	if !hit.Cached {
		t.Fatal("second resolution missed the cache")
	}
	if hit.Exec != 0 {
		t.Errorf("cache hit exec = %v, want 0", hit.Exec)
	}
	if hit.Probe != hit.Duration {
		t.Errorf("cache hit probe %v != total %v", hit.Probe, hit.Duration)
	}
}

// TestEngineResultStoreBounded: unique cells whose estimates sum to at
// least twice the result budget leave at most the budget retained, with
// the entries and evictions an LRU of those sizes implies, and an
// evicted key recomputes to an equal result.
func TestEngineResultStoreBounded(t *testing.T) {
	cfg := Config{Scale: 0.01}
	o := OptsSpec{Instr: paperInstr(), Framework: &core.Options{Variation: core.FullDuplication}}
	var cells []Cell
	for i := range 12 {
		cells = append(cells, cfg.Cell("db", o, CounterTrigger(int64(101+2*i))))
	}
	want, err := NewEngine(2, nil).Do(cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range want {
		sum += resultBytes(r)
	}
	budget := sum / 2

	// Cells resolve one at a time, so the store holds the newest cells
	// whose estimates fit the budget and has evicted the rest.
	eng := NewEngine(1, nil)
	eng.results = newStore(budget, resultBytes)
	reg := telemetry.NewRegistry()
	eng.AttachMetrics(reg)
	for _, c := range cells {
		if _, err := eng.Do(cfg, []Cell{c}); err != nil {
			t.Fatal(err)
		}
	}
	kept, held := 0, int64(0)
	for i := len(want) - 1; i >= 0 && held+resultBytes(want[i]) <= budget; i-- {
		kept++
		held += resultBytes(want[i])
	}
	n := len(cells)
	st := eng.ResultStats()
	if st.Bytes > budget || st.Bytes != held || st.Entries != kept || st.Evictions != n-kept || st.Misses != n {
		t.Fatalf("result store %+v, want %d misses, %d entries of %d bytes (budget %d), %d evictions", st, n, kept, held, budget, n-kept)
	}
	if got := reg.Counter(MetricCellMemoEvict).Value(); got != uint64(n-kept) {
		t.Errorf("%s = %d, want %d", MetricCellMemoEvict, got, n-kept)
	}
	if got := reg.Gauge(MetricCellMemoRetained).Value(); got != held {
		t.Errorf("%s = %d, want %d", MetricCellMemoRetained, got, held)
	}

	again, err := eng.Do(cfg, cells[:1])
	if err != nil {
		t.Fatal(err)
	}
	if eng.ResultStats().Misses != n+1 {
		t.Fatalf("the evicted cell was not recomputed: %+v", eng.ResultStats())
	}
	if err := sameRun(sharedRun{res: again[0]}, sharedRun{res: want[0]}); err != nil {
		t.Fatalf("the evicted cell recomputed to a different result: %v", err)
	}
}

// TestEngineCountAllocatesNothing: after an artifact's first count, a
// repeat count allocates nothing, and each counter carries the
// "<name>.<artifact>" name /metrics has always shown.
func TestEngineCountAllocatesNothing(t *testing.T) {
	eng := NewEngine(1, nil)
	reg := telemetry.NewRegistry()
	eng.AttachMetrics(reg)
	cfg := Config{Artifact: "service"}
	eng.count(cfg, MetricCellMemoHit)
	if n := testing.AllocsPerRun(100, func() { eng.count(cfg, MetricCellMemoHit) }); n != 0 {
		t.Errorf("a repeat count allocates %v times, want 0", n)
	}
	if got := reg.Counter(MetricCellMemoHit + ".service").Value(); got != 102 {
		t.Errorf("%s.service = %d, want 102", MetricCellMemoHit, got)
	}
	eng.count(Config{}, MetricCellsRun)
	names := map[string]bool{}
	for _, m := range reg.Snapshot() {
		names[m.Name] = true
	}
	for _, want := range []string{MetricCellMemoHit + ".service", MetricCellsRun + ".unlabeled"} {
		if !names[want] {
			t.Errorf("registry lacks %s: %v", want, names)
		}
	}
	if names[MetricCellsRun+".service"] || names[MetricCellMemoHit+".unlabeled"] {
		t.Errorf("a counter that never counted is registered: %v", names)
	}
}
