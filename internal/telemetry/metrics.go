package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution of uint64 observations.
// Bounds are inclusive upper bounds; one implicit overflow bucket
// catches everything above the last bound. Its readers are the
// Prometheus exposition (cumulative buckets, _sum and _count) and
// Count and Sum.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	// Le is the inclusive upper bound; Inf marks the overflow bucket.
	Le uint64
	// Inf is true for the overflow bucket (Le is meaningless then).
	Inf bool
	// N is the number of observations in this bucket alone (not
	// cumulative).
	N uint64
}

// Buckets returns the per-bucket counts, in bound order with the
// overflow bucket last.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	for i := range h.bounds {
		out[i] = Bucket{Le: h.bounds[i], N: h.counts[i].Load()}
	}
	out[len(h.bounds)] = Bucket{Inf: true, N: h.counts[len(h.bounds)].Load()}
	return out
}

// ExpBuckets returns n exponentially growing inclusive upper bounds
// starting at start and doubling each step — the usual shape for
// count-per-interval distributions.
func ExpBuckets(start uint64, n int) []uint64 {
	if start == 0 {
		start = 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = start
		start *= 2
	}
	return out
}

// Registry is a named collection of metrics. Lookups are get-or-create
// and guarded by a mutex; the returned metric handles update via atomics
// so hot paths touch no locks. A name is permanently bound to the kind
// it was first created with — a kind mismatch panics, since it is a
// programming error, not an input error.
type Registry struct {
	mu sync.Mutex
	m  map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]any)}
}

func (r *Registry) lookup(name string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.m[name]; ok {
		return got
	}
	v := mk()
	r.m[name] = v
	return v
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	got := r.lookup(name, func() any { return new(Counter) })
	c, ok := got.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q is a %T, not a counter", name, got))
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	got := r.lookup(name, func() any { return new(Gauge) })
	g, ok := got.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q is a %T, not a gauge", name, got))
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds if needed. Bounds are ignored on later lookups of an existing
// histogram.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	got := r.lookup(name, func() any {
		b := append([]uint64(nil), bounds...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		h := &Histogram{bounds: b}
		h.counts = make([]atomic.Uint64, len(b)+1)
		return h
	})
	h, ok := got.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q is a %T, not a histogram", name, got))
	}
	return h
}

// Sample is one flattened metric value in a snapshot.
type Sample struct {
	Name  string
	Value int64
}

// Snapshot flattens every metric into (name, value) samples, sorted by
// name for deterministic output. Counters and gauges contribute one
// sample each; a histogram named h contributes h.count, h.sum, one
// h.le.<bound> per bucket and h.le.inf for the overflow bucket.
func (r *Registry) Snapshot() []Sample {
	cols := r.columns()
	out := make([]Sample, len(cols))
	for i, c := range cols {
		out[i] = Sample{c.name, c.value()}
	}
	return out
}

// column is one flattened metric sample: its name and a handle to read
// its value. Exactly one of c, g and h is set; a histogram column reads
// its count, its sum or the bucket at index part. Columns hold no func
// values, so two series compare with reflect.DeepEqual.
type column struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
	part int
}

// Histogram column parts other than a bucket index.
const (
	partCount = -1
	partSum   = -2
)

// columns resolves every metric into Snapshot's columns, in its order.
// Snapshot and Series share it; a Series resolves once and reads the
// handles at every capture.
func (r *Registry) columns() []column {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]column, 0, len(r.m))
	for name, m := range r.m {
		switch v := m.(type) {
		case *Counter:
			out = append(out, column{name: name, c: v})
		case *Gauge:
			out = append(out, column{name: name, g: v})
		case *Histogram:
			out = append(out,
				column{name: name + ".count", h: v, part: partCount},
				column{name: name + ".sum", h: v, part: partSum})
			for i := range v.counts {
				le := "inf"
				if i < len(v.bounds) {
					le = strconv.FormatUint(v.bounds[i], 10)
				}
				out = append(out, column{name: name + ".le." + le, h: v, part: i})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// value reads the column's current value.
func (c column) value() int64 {
	switch {
	case c.c != nil:
		return int64(c.c.Value())
	case c.g != nil:
		return c.g.Value()
	case c.part == partCount:
		return int64(c.h.Count())
	case c.part == partSum:
		return int64(c.h.Sum())
	}
	return int64(c.h.counts[c.part].Load())
}
