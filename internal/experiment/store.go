package experiment

import (
	"container/list"
	"sync"

	"instrsample/internal/telemetry"
)

// lru is a byte-budgeted least-recently-used index of keys and their
// sizes: the one eviction loop of this package, under the engine's
// stores and the disk cache. A put that takes the total past the budget
// evicts from the least recently used end, the put's own key included,
// and hands each evicted key to evicted. Its owner's lock guards it.
type lru struct {
	budget, bytes int64
	order         list.List // of *lruItem, most recently used first
	items         map[string]*list.Element
	evicted       func(key string)
}

type lruItem struct {
	key  string
	size int64
}

func newLRU(budget int64, evicted func(key string)) *lru {
	return &lru{budget: budget, items: make(map[string]*list.Element), evicted: evicted}
}

// touch marks key most recently used, if the index holds it.
func (l *lru) touch(key string) {
	if el, ok := l.items[key]; ok {
		l.order.MoveToFront(el)
	}
}

// put holds key at size bytes as the most recently used key, replacing
// any size it had, then evicts past the budget.
func (l *lru) put(key string, size int64) {
	if el, ok := l.items[key]; ok {
		l.bytes -= el.Value.(*lruItem).size
		l.order.Remove(el)
	}
	l.items[key] = l.order.PushFront(&lruItem{key, size})
	l.bytes += size
	for l.bytes > l.budget {
		it := l.order.Remove(l.order.Back()).(*lruItem)
		delete(l.items, it.key)
		l.bytes -= it.size
		l.evicted(it.key)
	}
}

// store is one of the engine's two keyed stores: cell results (the memo)
// or compiled programs (DESIGN.md §10). Concurrent lookups of one key
// compute it once and share the value (single flight); a failure reaches
// the lookups waiting on it but is not kept; finished values are evicted
// least recently used once their estimated bytes pass the budget.
type store[V any] struct {
	size func(V) int64 // the deterministic estimate the budget applies to

	mu    sync.Mutex
	calls map[string]*call[V] // running and finished
	done  *lru                // the finished calls
	hit   *telemetry.Counter
	miss  *telemetry.Counter
	evict *telemetry.Counter
	bytes *telemetry.Gauge // mirrors done.bytes
}

// call is one key's computation: owner names who runs it (for results,
// the requesting Config.Owner), and val and err are set before ready
// closes.
type call[V any] struct {
	ready chan struct{}
	owner string
	val   V
	err   error
}

// StoreStats counts one of an engine's stores.
type StoreStats struct {
	// Hits counts lookups served by a finished or running computation,
	// Misses lookups that computed, Evictions values dropped under the
	// byte budget.
	Hits, Misses, Evictions int
	// Entries and Bytes are what the store holds now (Bytes is the
	// estimate the budget applies to).
	Entries int
	Bytes   int64
}

func newStore[V any](budget int64, size func(V) int64) *store[V] {
	s := &store[V]{size: size, calls: make(map[string]*call[V]),
		hit: new(telemetry.Counter), miss: new(telemetry.Counter), evict: new(telemetry.Counter), bytes: new(telemetry.Gauge)}
	s.done = newLRU(budget, func(key string) {
		delete(s.calls, key)
		s.evict.Inc()
	})
	return s
}

// attach moves the store's counters into reg under the given names (the
// hit and miss counters stay private when hit is empty), where Stats
// then reads them. Attach before the first lookup.
func (s *store[V]) attach(reg *telemetry.Registry, hit, miss, evict, bytes string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hit != "" {
		s.hit, s.miss = reg.Counter(hit), reg.Counter(miss)
	}
	s.evict, s.bytes = reg.Counter(evict), reg.Gauge(bytes)
}

// join returns key's call and whether it is a hit, a call running or
// finished to wait on (ready). On a miss the call is new and registered:
// the caller computes it and hands the outcome to finish.
func (s *store[V]) join(key, owner string) (c *call[V], hit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.calls[key]; ok {
		s.done.touch(key)
		s.hit.Inc()
		return c, true
	}
	c = &call[V]{ready: make(chan struct{}), owner: owner}
	s.calls[key] = c
	s.miss.Inc()
	return c, false
}

// finish records the outcome of a call join registered and releases its
// waiters: a value is kept under the budget, a failure leaves the store.
func (s *store[V]) finish(key string, c *call[V], v V, err error) (V, error) {
	c.val, c.err = v, err
	s.mu.Lock()
	if err != nil {
		delete(s.calls, key)
	} else {
		s.done.put(key, s.size(v))
		s.bytes.Set(s.done.bytes)
	}
	s.mu.Unlock()
	close(c.ready)
	return v, err
}

// Stats returns the store's counters and what it holds.
func (s *store[V]) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Hits: int(s.hit.Value()), Misses: int(s.miss.Value()), Evictions: int(s.evict.Value()),
		Entries: len(s.done.items), Bytes: s.done.bytes}
}
