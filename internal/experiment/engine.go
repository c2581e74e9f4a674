package experiment

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"instrsample/internal/compile"
	"instrsample/internal/ir"
	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
)

// Engine executes cells across a bounded worker pool, deduplicating
// in-flight and completed cells by key in its result store (so a cell
// shared by several artifacts runs once per process) and consulting an
// optional on-disk Cache before running anything (so repeated
// invocations at the same scale are near-instant). Its program store
// lets cells that differ only in how they run (trigger, interval,
// oracle) share one build and compile (Compiled). Both stores are
// bounded (DESIGN.md §10): an evicted cell is recomputed when asked for.
//
// One Engine is meant to be shared by every artifact generated in one
// invocation: cmd/experiments creates one and stores it in
// Config.Engine. An Engine is safe for concurrent use; generators
// running in parallel goroutines may call Do simultaneously.
type Engine struct {
	workers  int
	cache    *Cache
	metrics  *telemetry.Registry
	sem      chan struct{}
	results  *store[*CellResult]
	programs *store[*compile.Result]

	mu        sync.Mutex
	counters  map[counterKey]*telemetry.Counter // resolved on first count
	cellMs    *telemetry.Histogram              // MetricCellMillis, resolved on first record
	timings   []CellTiming                      // the keptTimings slowest, in Slowest's order
	scheduled int
	completed int
	runs      int
	cacheHits int
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
		workers:  workers,
		cache:    cache,
		sem:      make(chan struct{}, workers),
		results:  newStore(resultBudget, resultBytes),
		programs: newStore(programBudget, programBytes),
	}
}

// resultBudget bounds the estimated bytes of the cell results an engine
// retains. A 15 s isampbench service run on a 2-vCPU host resolved 3,632
// unique jobs (3.0 MB estimated) and a cmd/experiments -scale 0.1 run of
// every artifact 689 cells (0.7 MB), so only sustained unique load
// evicts, once about 40,000 job results are held.
const resultBudget = 32 << 20

// Estimated heap bytes one retained result holds: a fixed part (the
// CellResult, its store entry and key), then per profile and per profile
// entry (in snapshots too), per output value and per aux value. A
// least-squares fit, within ±14% per result, to the heap each result
// frees, measured on go1.24/amd64 over the 689 cells of a
// cmd/experiments -scale 0.1 run and 150 service-plan job cells (about
// 840 bytes each).
//
// A rendered profile label (setLabels) costs resultLabelBytes plus its
// length: the map slot and string header, measured on go1.24/amd64 at
// 69–82 bytes for 12-byte labels and 117–130 for 60-byte ones, in maps
// of 4 to 256 labels.
const (
	resultBaseBytes    = 472
	resultProfileBytes = 166
	resultEntryBytes   = 29
	resultOutputBytes  = 13
	resultAuxBytes     = 127
	resultLabelBytes   = 60
)

// resultBytes is the deterministic size estimate the result budget
// applies to. It counts the label of every entry of a labeled profile,
// as the store keeps them (detachLabels); job results drop their
// labels instead.
func resultBytes(r *CellResult) int64 {
	n := resultBaseBytes + resultOutputBytes*int64(len(r.Output)) + resultAuxBytes*int64(len(r.Aux))
	profiles := func(ps []*profile.Profile) {
		for _, p := range ps {
			n += resultProfileBytes + resultEntryBytes*int64(p.NumEvents())
			if p.Labeler != nil {
				for _, e := range p.Entries() {
					n += resultLabelBytes + int64(len(p.Labeler(e.Key)))
				}
			}
		}
	}
	profiles(r.Profiles)
	for _, s := range r.Snapshots {
		profiles(s.Profiles)
	}
	return n
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
	// Result-store metrics, not per artifact:
	MetricCellMemoEvict    = "cells.memo_evict"          // counter: results dropped under the budget
	MetricCellMemoRetained = "cells.memo_retained_bytes" // gauge: estimated bytes the memo holds
)

// counterKey names one per-artifact counter: a metric name and the
// artifact its ".<artifact>" suffix carries.
type counterKey struct{ name, artifact string }

// AttachMetrics directs the engine's per-cell and store accounting into
// reg. Attach once, before running any cells.
func (e *Engine) AttachMetrics(reg *telemetry.Registry) {
	e.mu.Lock()
	e.metrics = reg
	e.counters = make(map[counterKey]*telemetry.Counter)
	e.mu.Unlock()
	e.results.attach(reg, "", "", MetricCellMemoEvict, MetricCellMemoRetained)
	e.programs.attach(reg, MetricProgramHit, MetricProgramMiss, MetricProgramEvict, MetricProgramRetained)
}

// Compiled returns the program that build returns, compiled under o,
// from the engine's program store: a miss builds and compiles it,
// concurrent misses on one programKey(prog, o) do so once, and a failure
// is returned but not kept. prog is the program's identity, the prefix
// its cell keys start with. The result is shared: run it through
// Prepare, which never writes to it. A nil engine builds and compiles
// every time.
func (e *Engine) Compiled(prog string, o OptsSpec, build func() (*ir.Program, error)) (*compile.Result, error) {
	mk := func() (*compile.Result, error) {
		p, err := build()
		if err != nil {
			return nil, err
		}
		return o.Compile(p)
	}
	if e == nil {
		return mk()
	}
	key := programKey(prog, o)
	c, hit := e.programs.join(key, "")
	if !hit {
		cr, err := mk()
		return e.programs.finish(key, c, cr, err)
	}
	<-c.ready
	return c.val, c.err
}

// ResultStats returns the result store's counters.
func (e *Engine) ResultStats() StoreStats { return e.results.Stats() }

// ProgramStats returns the program store's counters.
func (e *Engine) ProgramStats() StoreStats { return e.programs.Stats() }

// count bumps one of cfg's artifact's counters. Each handle is taken
// from the registry on its first count and kept, so a repeat count
// builds no name and takes no registry lock, and a name still reaches
// /metrics only once it has counted something.
func (e *Engine) count(cfg Config, name string) {
	e.mu.Lock()
	if e.metrics == nil {
		e.mu.Unlock()
		return
	}
	k := counterKey{name, cfg.artifact()}
	c := e.counters[k]
	if c == nil {
		c = e.metrics.Counter(name + "." + k.artifact)
		e.counters[k] = c
	}
	e.mu.Unlock()
	c.Inc()
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

// one resolves a single cell request through the result store. A
// request that joins another's flight reports memo-flight, caused by the
// flight's owner, and waits on it.
func (e *Engine) one(ctx context.Context, cfg Config, c Cell) (*CellResult, error) {
	if c.Key == "" {
		return e.execute(ctx, cfg, c)
	}
	f, hit := e.results.join(c.Key, cfg.Owner)
	if !hit {
		res, err := e.execute(ctx, cfg, c)
		return e.results.finish(c.Key, f, res, err)
	}
	e.count(cfg, MetricCellMemoHit)
	c.stage("memo-flight", f.owner)
	select {
	case <-f.ready:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
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
	if c.Key != "" {
		detachLabels(res) // the result store keeps res
		if e.cache != nil {
			e.cache.Store(c.Key, res)
		}
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
		if e.cellMs == nil {
			e.cellMs = reg.Histogram(MetricCellMillis, telemetry.ExpBuckets(1, 20))
		}
		e.cellMs.Observe(uint64(d.Milliseconds()))
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
	return EngineStats{CellsRun: e.runs, CacheHits: e.cacheHits}
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
