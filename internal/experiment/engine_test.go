package experiment

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
// memo table, and cell runners for data races.
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
	st := parCfg.Engine.Stats()
	if st.MemoHits == 0 {
		t.Error("no memo hits: artifacts share cells, dedup should trigger")
	}
	if st.CacheHits != 0 {
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
	st := eng.Stats()
	if st.CellsRun != 1 || st.MemoHits != 9 {
		t.Errorf("stats %+v, want CellsRun 1 MemoHits 9", st)
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
// already-cancelled context, and a cancellable context armed mid-run
// stops the VM with an error that is both a context cancellation and a
// vm cancellation (so callers can classify it either way).
func TestCellRunHonoursContext(t *testing.T) {
	cfg := Config{Scale: 0.05}
	c := cfg.Cell("compress", OptsSpec{}, NeverTrigger())
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := c.Run(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: got %v, want context.Canceled", err)
	}

	// Mid-run: cancel shortly after the VM starts. If the benchmark
	// finishes first the run legitimately succeeds; both outcomes are
	// checked, neither may hang.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	big := Config{Scale: 1}.Cell("compress", OptsSpec{}, NeverTrigger())
	res, err := big.Run(ctx)
	if err == nil {
		t.Logf("benchmark finished before cancellation (result %v)", res.Stats.Cycles)
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: got %v, want wrapped context.Canceled", err)
	}
	if !vm.IsCancelled(err) {
		t.Fatalf("mid-run cancel: %v does not wrap vm.CancelError", err)
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
	go func() {
		// Give the waiter time to park, then let the owner finish.
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
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
