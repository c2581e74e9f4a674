package experiment

import (
	"container/list"
	"sync"

	"instrsample/internal/compile"
	"instrsample/internal/ir"
	"instrsample/internal/telemetry"
)

// Program-table metric names, in the registry an engine's AttachMetrics
// names: the daemon's /metrics shows them as programs_hit etc.
const (
	MetricProgramHit      = "programs.hit"            // counter: lookups served without compiling
	MetricProgramMiss     = "programs.miss"           // counter: lookups that compiled
	MetricProgramEvict    = "programs.evict"          // counter: programs dropped under the budget
	MetricProgramRetained = "programs.retained_bytes" // gauge: estimated bytes the table holds
)

// programBudget bounds the estimated bytes of the compiled programs an
// engine retains. The isampbench service plan's 150 configurations
// (its ten benchmarks at its scales) come to about 11 MiB.
const programBudget = 32 << 20

// Estimated heap bytes one compiled program retains per IR instruction
// and per block: a least-squares fit, within ±20% per program, over
// those 150 configurations measured on go1.24/amd64.
const (
	programInstrBytes = 146
	programBlockBytes = 102
)

// programKey identifies a compiled program: the program's identity
// (bench=… scale=…, a source hash, or a scenario hash and index — the
// prefix cell and job keys start with) plus the fields of o that change
// what Compile produces. It is the only place that decides those
// fields; the run-time ones (IterBudget, Verify) and everything on the
// VM side (trigger, i-cache, max cycles) are left out, so runs that
// differ only there share one compiled program.
func programKey(prog string, o OptsSpec) string {
	return prog + " " + o.compileKey()
}

// programTable holds compiled programs by programKey (DESIGN.md §10).
// Concurrent lookups of one key compile once; a failed compile is not
// kept; finished programs are evicted least recently used once their
// estimated bytes exceed the budget.
type programTable struct {
	budget int64

	mu       sync.Mutex
	entries  map[string]*programEntry
	lru      list.List // of *programEntry, most recently used first
	retained int64
	stats    ProgramStats
	hit      *telemetry.Counter
	miss     *telemetry.Counter
	evict    *telemetry.Counter
	bytes    *telemetry.Gauge
}

// programEntry is one key's compile: lookups past the first wait on
// done. elem is nil until the compile succeeds.
type programEntry struct {
	key  string
	done chan struct{}
	cr   *compile.Result
	err  error
	size int64
	elem *list.Element
}

// ProgramStats counts a program table's activity.
type ProgramStats struct {
	// Hits and Misses count lookups served from the table and lookups
	// that compiled.
	Hits, Misses int
	// Evictions counts programs dropped under the byte budget.
	Evictions int
	// Programs and Bytes are what the table retains now (Bytes is the
	// estimate the budget applies to).
	Programs int
	Bytes    int64
}

func newProgramTable(budget int64) *programTable {
	return &programTable{budget: budget, entries: make(map[string]*programEntry)}
}

// attach mirrors the table's counters into reg.
func (t *programTable) attach(reg *telemetry.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hit, t.miss, t.evict, t.bytes = nil, nil, nil, nil
	if reg != nil {
		t.hit = reg.Counter(MetricProgramHit)
		t.miss = reg.Counter(MetricProgramMiss)
		t.evict = reg.Counter(MetricProgramEvict)
		t.bytes = reg.Gauge(MetricProgramRetained)
	}
}

// lookup returns key's compiled program, calling mk on a miss. Waiters
// on a compile that fails see its error.
func (t *programTable) lookup(key string, mk func() (*compile.Result, error)) (*compile.Result, error) {
	t.mu.Lock()
	if e, ok := t.entries[key]; ok {
		if e.elem != nil {
			t.lru.MoveToFront(e.elem)
		}
		t.stats.Hits++
		inc(t.hit)
		t.mu.Unlock()
		<-e.done
		return e.cr, e.err
	}
	e := &programEntry{key: key, done: make(chan struct{})}
	t.entries[key] = e
	t.stats.Misses++
	inc(t.miss)
	t.mu.Unlock()

	e.cr, e.err = mk()

	t.mu.Lock()
	if e.err != nil {
		delete(t.entries, key)
	} else {
		e.size = programBytes(e.cr.Prog)
		e.elem = t.lru.PushFront(e)
		t.retained += e.size
		for t.retained > t.budget {
			old := t.lru.Remove(t.lru.Back()).(*programEntry)
			delete(t.entries, old.key)
			t.retained -= old.size
			t.stats.Evictions++
			inc(t.evict)
		}
	}
	if t.bytes != nil {
		t.bytes.Set(t.retained)
	}
	t.mu.Unlock()
	close(e.done)
	return e.cr, e.err
}

// Stats returns the table's counters and what it retains.
func (t *programTable) Stats() ProgramStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.Programs, s.Bytes = t.lru.Len(), t.retained
	return s
}

// programBytes is the deterministic size estimate the budget applies to.
func programBytes(p *ir.Program) int64 {
	var n int64
	for _, m := range p.Methods() {
		n += programBlockBytes * int64(len(m.Blocks))
		for _, b := range m.Blocks {
			n += programInstrBytes * int64(len(b.Instrs))
		}
	}
	return n
}

func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}
