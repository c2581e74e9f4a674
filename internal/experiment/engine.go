package experiment

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"instrsample/internal/telemetry"
)

// Engine executes cells across a bounded worker pool, deduplicating
// in-flight and completed cells by key (so a cell shared by several
// artifacts runs once per process) and consulting an optional on-disk
// Cache before running anything (so repeated invocations at the same
// scale are near-instant).
//
// One Engine is meant to be shared by every artifact generated in one
// invocation: cmd/experiments creates one and stores it in
// Config.Engine. An Engine is safe for concurrent use; generators
// running in parallel goroutines may call Do simultaneously.
type Engine struct {
	workers int
	cache   *Cache
	metrics *telemetry.Registry
	sem     chan struct{}

	mu        sync.Mutex
	memo      map[string]*flight
	timings   []CellTiming // the keptTimings slowest, in Slowest's order
	scheduled int
	completed int
	runs      int
	memoHits  int
	cacheHits int
}

// flight is one unique cell's execution slot: requesters past the first
// wait on done and share the result. owner labels who runs the cell
// (Config.Owner — the service sets its job ID) so waiters can attribute
// their memo-flight wait to the job actually doing the work.
type flight struct {
	done  chan struct{}
	owner string
	res   *CellResult
	err   error
}

// CellTiming records how long one executed cell took, split into the
// cache-probe phase (on-disk Load, including result decode on a hit)
// and the execution phase (Cell.Run on a miss).
type CellTiming struct {
	// Key is the cell's canonical key.
	Key string
	// Duration is the total wall-clock resolution time (Probe + Exec).
	Duration time.Duration
	// Probe is the on-disk cache probe/load time (zero with no cache).
	Probe time.Duration
	// Exec is the Cell.Run execution time (zero on a cache hit).
	Exec time.Duration
	// Cached reports whether the result came from the on-disk cache.
	Cached bool
}

// keptTimings bounds how many CellTimings an engine retains: only the
// slowest matter (the -timings report prints ten), and a long-lived
// engine such as isampd's resolves one cell per unique job.
const keptTimings = 10

// EngineStats summarizes an engine's activity.
type EngineStats struct {
	// CellsRun is the number of unique cells executed or cache-loaded.
	CellsRun int
	// MemoHits is the number of requests served by the in-memory memo
	// (cells shared across artifacts or repeated within one).
	MemoHits int
	// CacheHits is the number of unique cells served by the on-disk cache.
	CacheHits int
}

// NewEngine returns an engine running at most workers cells concurrently
// (minimum 1), consulting cache when non-nil.
func NewEngine(workers int, cache *Cache) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{
		workers: workers,
		cache:   cache,
		sem:     make(chan struct{}, workers),
		memo:    make(map[string]*flight),
	}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Engine metric names. Counters are suffixed ".<artifact>" using the
// requesting Config's Artifact label, so hit/miss behaviour is
// attributable per artifact in the -timings report and the
// -telemetry-dir dump.
const (
	MetricCellsRun      = "cells.run"         // counter: unique cells resolved
	MetricCellCacheHit  = "cells.cache_hit"   // counter: served from the on-disk cache
	MetricCellCacheMiss = "cells.cache_miss"  // counter: executed (not in cache)
	MetricCellMemoHit   = "cells.memo_hit"    // counter: served from the in-memory memo
	MetricCellMillis    = "cells.duration_ms" // histogram: per-cell resolution time
)

// AttachMetrics directs the engine's per-cell accounting into reg; nil
// detaches. Attach before running any cells.
func (e *Engine) AttachMetrics(reg *telemetry.Registry) {
	e.mu.Lock()
	e.metrics = reg
	e.mu.Unlock()
}

// count bumps a per-artifact engine counter.
func (e *Engine) count(cfg Config, name string) {
	e.mu.Lock()
	reg := e.metrics
	e.mu.Unlock()
	if reg == nil {
		return
	}
	reg.Counter(name + "." + cfg.artifact()).Inc()
}

// Do executes the cells and returns their results in input order, which
// is what keeps artifact assembly — and therefore output bytes —
// independent of scheduling. Keyed duplicates are computed once. On
// error, the first failing cell's error (in input order) is returned.
//
// cfg supplies the Progress hook for per-cell completion lines; when the
// engine runs cells concurrently the hook must be safe for concurrent
// use.
func (e *Engine) Do(cfg Config, cells []Cell) ([]*CellResult, error) {
	return e.DoContext(context.Background(), cfg, cells)
}

// DoContext is Do with cancellation: a done ctx stops cells that have not
// started, unblocks requesters waiting on memoized flights, and — because
// standard cells arm a vm.Cancel from the context — stops running VMs at
// their next observation point. The flight that owns a cell keeps running
// under its own requester's context only; a waiter abandoning a flight
// does not cancel it for others.
func (e *Engine) DoContext(ctx context.Context, cfg Config, cells []Cell) ([]*CellResult, error) {
	e.mu.Lock()
	e.scheduled += len(cells)
	e.mu.Unlock()

	results := make([]*CellResult, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.one(ctx, cfg, cells[i])
			e.mu.Lock()
			e.completed++
			e.mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// one resolves a single cell request through the memo table.
func (e *Engine) one(ctx context.Context, cfg Config, c Cell) (*CellResult, error) {
	if c.Key == "" {
		return e.execute(ctx, cfg, c)
	}
	e.mu.Lock()
	if f, ok := e.memo[c.Key]; ok {
		e.memoHits++
		e.mu.Unlock()
		e.count(cfg, MetricCellMemoHit)
		c.stage("memo-flight", f.owner)
		select {
		case <-f.done:
			return f.res, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{}), owner: cfg.Owner}
	e.memo[c.Key] = f
	e.mu.Unlock()
	f.res, f.err = e.execute(ctx, cfg, c)
	if f.err != nil {
		// Failures are not memoized: a cancellation belongs to the
		// requester that owned the flight, and a later identical request
		// must be free to run the cell for itself. Waiters already parked
		// on this flight still observe the error.
		e.mu.Lock()
		delete(e.memo, c.Key)
		e.mu.Unlock()
	}
	close(f.done)
	return f.res, f.err
}

// execute runs (or cache-loads) one unique cell under the worker
// semaphore and records its timing.
func (e *Engine) execute(ctx context.Context, cfg Config, c Cell) (*CellResult, error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.sem }()

	start := time.Now()
	var probe time.Duration
	if c.Key != "" && e.cache != nil {
		c.stage("cache-probe", "")
		if res, ok := e.cache.Load(c.Key); ok {
			probe = time.Since(start)
			e.record(cfg, c.Key, probe, 0, true)
			return res, nil
		}
		probe = time.Since(start)
	}
	c.stage("run", "")
	execStart := time.Now()
	res, err := c.Run(ctx)
	if err != nil {
		return nil, err
	}
	if c.Key != "" && e.cache != nil {
		e.cache.Store(c.Key, res)
	}
	e.record(cfg, c.Key, probe, time.Since(execStart), false)
	return res, nil
}

// record accounts one executed cell and emits a progress line.
func (e *Engine) record(cfg Config, key string, probe, exec time.Duration, cached bool) {
	d := probe + exec
	e.count(cfg, MetricCellsRun)
	if cached {
		e.count(cfg, MetricCellCacheHit)
	} else {
		e.count(cfg, MetricCellCacheMiss)
	}
	e.mu.Lock()
	if reg := e.metrics; reg != nil {
		reg.Histogram(MetricCellMillis, telemetry.ExpBuckets(1, 20)).
			Observe(uint64(d.Milliseconds()))
	}
	e.runs++
	if cached {
		e.cacheHits++
	}
	e.timings = keepSlowest(e.timings, CellTiming{Key: key, Duration: d, Probe: probe, Exec: exec, Cached: cached}, keptTimings)
	done, sched := e.completed, e.scheduled
	e.mu.Unlock()
	tag := ""
	if cached {
		tag = " cache"
	}
	if key == "" {
		key = "(unkeyed cell)"
	}
	cfg.progress("cell %d/%d%s %v  %s", done+1, sched, tag, d.Round(time.Millisecond), key)
}

// Stats returns the engine's cumulative counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{CellsRun: e.runs, MemoHits: e.memoHits, CacheHits: e.cacheHits}
}

// Slowest returns up to n executed cells ordered by descending duration
// (ties broken by key), for the -timings report. Only the keptTimings
// slowest cells are retained, so n <= 0 or n > keptTimings returns at
// most that many.
func (e *Engine) Slowest(n int) []CellTiming {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n <= 0 || n > len(e.timings) {
		n = len(e.timings)
	}
	return slices.Clone(e.timings[:n])
}

// keepSlowest inserts t into ts, which is sorted in Slowest's order
// (duration descending, then key ascending), and drops every entry past
// the k slowest.
func keepSlowest(ts []CellTiming, t CellTiming, k int) []CellTiming {
	i := sort.Search(len(ts), func(i int) bool {
		if t.Duration != ts[i].Duration {
			return t.Duration > ts[i].Duration
		}
		return t.Key < ts[i].Key
	})
	if i >= k {
		return ts
	}
	ts = slices.Insert(ts, i, t)
	return ts[:min(len(ts), k)]
}
