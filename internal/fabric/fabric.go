// Package fabric is the distributed experiment fabric: the fleet
// executor behind isampfleet. Its Coordinator runs a service.Server's
// jobs on a fleet of isampd workers, so the fleet serves the single
// daemon's HTTP surface — the same code, not a copy — and clients scale
// from one node to a cluster without changing a line (DESIGN.md §15).
//
// The fabric rests on the observation that measurement cells are pure
// and build-ID-keyed (DESIGN.md §6): a cell key is a content address,
// so results can be deduplicated cluster-wide (single-flight), owned by
// a rendezvous hash but run by whichever worker slot is free first, and
// shared through a network content-addressed store (the CAS endpoints
// every worker and the coordinator serve) — any node's warm cache
// benefits the whole fleet. Backpressure propagates: worker
// 429/Retry-After and queue depths roll up into the coordinator's own
// bounded queue and front-door 429s, and a worker lost mid-job has its
// cell requeued elsewhere (at most once per worker; failures are never
// memoized). The fleet topology (the worker list) reloads hot on SIGHUP.
package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/service"
	"instrsample/internal/telemetry"
)

// Fleet metric names, alongside the jobs.*, queue.depth and cas.* names
// the coordinator's service.Server shares with a single daemon.
const (
	MetricCASLocalHit  = "fleet.cas.local_hit"          // counter: jobs answered from the coordinator's CAS replica
	MetricCASRemoteHit = "fleet.cas.remote_hit"         // counter: jobs answered from a peer's CAS
	MetricCASMiss      = "fleet.cas.miss"               // counter: CAS probes that found nothing
	MetricCASRejected  = "fleet.cas.integrity_rejected" // counter: worker CAS payloads refused (address mismatch)
	MetricSteals       = "fleet.steals"                 // counter: cells run away from their rendezvous owner
	MetricRequeues     = "fleet.requeues"               // counter: cells requeued after a worker loss
	MetricMemoPiggy    = "fleet.singleflight.piggyback" // counter: duplicate submissions attached to an in-flight cell
	MetricWorkerLost   = "fleet.worker.lost"            // counter: workers marked down
)

// WorkerConf names one isampd worker in the fleet config.
type WorkerConf struct {
	// Name is the worker's stable identity (metric names, ledger causes).
	Name string `json:"name"`
	// URL is the worker's base URL (e.g. http://127.0.0.1:8347).
	URL string `json:"url"`
}

// FleetConf is the hot-reloadable part of the coordinator's
// configuration: the worker set. cmd/isampfleet re-reads it from disk on
// SIGHUP and applies it with Reload.
type FleetConf struct {
	Workers []WorkerConf `json:"workers"`
}

// Config configures a Coordinator: the fleet's own settings. Queue
// bound, retention, registry, obs state, body limit, log and clock are
// the service.Config of the Server the coordinator executes for.
type Config struct {
	// Fleet is the initial topology (also reloadable via Reload).
	Fleet FleetConf
	// Slots is the number of concurrent dispatches per worker (default 2).
	Slots int
	// CacheDir, when non-empty, roots the coordinator's own CAS replica:
	// results fetched from workers are stored here and served back to the
	// fleet (and to clients, instantly, on resubmission).
	CacheDir string
	// CacheMaxBytes bounds the CAS replica with LRU eviction (0 = unbounded).
	CacheMaxBytes int64
	// FleetID overrides the content-addressing build ID. Empty means
	// learn it from the first worker /healthz handshake — the workers'
	// binary, not the coordinator's, defines the address space.
	FleetID string
	// HealthInterval is the per-worker health-probe cadence (default 500ms).
	HealthInterval time.Duration
	// Client is the HTTP client for worker traffic (default: dedicated
	// client with connection pooling).
	Client *http.Client
}

// workerRPCTimeout bounds the worker calls that must not hang on a
// wedged worker: health probes and remote cancels.
const workerRPCTimeout = 2 * time.Second

// worker is the coordinator's view of one fleet member.
type worker struct {
	name string
	url  string

	inflight int  // busy slots: cells dispatched and not yet resolved, and 429 backoffs
	up       bool // health probe OK and build-compatible
	probed   bool // at least one health probe answered
	buildID  string
	depth    int  // worker-reported queue depth, for /healthz and metrics
	draining bool // removed by reload: finish inflight, take no new work
	gone     bool // fully removed
	// ctx scopes every request to the worker; stop ends it when the
	// worker leaves the fleet or the coordinator stops.
	ctx  context.Context
	stop context.CancelFunc
}

// Coordinator is the fleet executor (service.Executor): it runs the
// jobs of the service.Server it is bound to on the fleet's workers.
// Create with New and pass it as service.Config.Executor; the Server
// serves the HTTP surface and stops it on Shutdown.
type Coordinator struct {
	cfg    Config
	client *http.Client

	// Bound by Start from the Server whose jobs the coordinator runs.
	srv        *service.Server
	reg        *telemetry.Registry
	now        func() time.Time
	logf       func(string, ...any)
	queueDepth int
	maxBody    int64

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[string]*worker
	flights map[flightKey]*flight // live cells
	queue   []*flight             // undispatched flights, oldest first
	closed  bool
	fleetID string
	cas     *experiment.Cache

	wg      sync.WaitGroup // dispatchers + health probes
	cancels sync.WaitGroup // remote cancels in flight
}

// New builds a Coordinator for cfg.Fleet. Its dispatchers and health
// probes start when a service.Server binds it (Start).
func New(cfg Config) (*Coordinator, error) {
	if cfg.Slots < 1 {
		cfg.Slots = 2
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	if len(cfg.Fleet.Workers) == 0 {
		return nil, fmt.Errorf("fabric: no workers configured")
	}
	client := cfg.Client
	if client == nil {
		// A dedicated transport, not http.DefaultTransport: worker
		// connections must not pool with unrelated traffic, and Stop
		// closes them all, so a stopped coordinator leaves no connection
		// goroutine behind on either end. The idle timeout bounds a
		// connection to a worker that left the fleet.
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     5 * time.Second,
		}}
	}
	c := &Coordinator{
		cfg:     cfg,
		client:  client,
		logf:    func(string, ...any) {},
		workers: make(map[string]*worker),
		flights: make(map[flightKey]*flight),
	}
	c.cond = sync.NewCond(&c.mu)
	if cfg.FleetID != "" {
		if err := c.setFleetID(cfg.FleetID); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Start binds the coordinator to s — its registry, clock, log, queue
// bound and body limit — and starts every worker's health probe and
// dispatch slots (service.Executor).
func (c *Coordinator) Start(s *service.Server) {
	cfg := s.Config()
	c.srv = s
	c.reg, c.now = cfg.Registry, cfg.Now
	c.queueDepth, c.maxBody = cfg.QueueDepth, cfg.MaxBodyBytes
	if cfg.Logf != nil {
		c.logf = cfg.Logf
	}
	c.mu.Lock()
	for _, wc := range c.cfg.Fleet.Workers {
		c.addWorkerLocked(wc)
	}
	c.mu.Unlock()
}

// Cache is the coordinator's CAS replica, served at /v1/cas: nil without
// a CacheDir or before the fleet ID is known (service.Executor).
func (c *Coordinator) Cache() *experiment.Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cas
}

// WorkerHealth is one worker's row in the coordinator /healthz document.
type WorkerHealth struct {
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	Inflight int    `json:"inflight"`
	Depth    int    `json:"reported_depth"`
	Draining bool   `json:"draining,omitempty"`
}

// Health adds the fleet's rows to /healthz: the coordinator role, the
// fleet's content-addressing build ID, and per-worker health and
// accounting (service.Executor).
func (c *Coordinator) Health(doc map[string]any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	workers := make(map[string]WorkerHealth, len(c.workers))
	names := make([]string, 0, len(c.workers))
	for name, wk := range c.workers {
		names = append(names, name)
		workers[name] = WorkerHealth{
			URL: wk.url, Up: wk.up, Inflight: wk.inflight,
			Depth: wk.depth, Draining: wk.draining,
		}
	}
	sort.Strings(names)
	doc["role"] = "coordinator"
	doc["build_id"] = c.fleetID
	doc["workers"] = workers
	doc["worker_set"] = names
}

// Stop ends all worker traffic — event streams, result fetches and
// remote cancels in flight abort, so a hung worker cannot wedge a drain
// — and returns once the dispatchers, health probes and cancels have
// exited and the worker connections are closed (service.Executor). The
// Server calls it once every job is terminal.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	c.closed = true
	for _, w := range c.workers {
		if !w.gone {
			w.gone = true
			w.stop()
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	c.cancels.Wait()
	c.client.CloseIdleConnections()
}

// setFleetID fixes the fleet's content-addressing ID and, when a cache
// dir is configured, opens the coordinator's CAS replica under it. The
// health path calls it under c.mu via setFleetIDLocked.
func (c *Coordinator) setFleetID(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setFleetIDLocked(id)
}

func (c *Coordinator) setFleetIDLocked(id string) error {
	if c.fleetID != "" {
		return nil
	}
	c.fleetID = id
	if c.cfg.CacheDir != "" {
		cas, err := experiment.OpenCacheID(c.cfg.CacheDir, id)
		if err == nil && c.cfg.CacheMaxBytes > 0 {
			err = cas.SetMaxBytes(c.cfg.CacheMaxBytes)
		}
		if err != nil {
			return fmt.Errorf("fabric: cas replica: %w", err)
		}
		c.cas = cas
	}
	return nil
}

// metricSafe maps a worker name into the metric-name alphabet.
func metricSafe(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, name)
}

// workerMetric names a per-worker gauge/counter.
func workerMetric(name, field string) string {
	return "fleet.worker." + metricSafe(name) + "." + field
}

// addWorkerLocked registers a worker and starts its health probe and
// dispatcher slots. Caller holds c.mu.
func (c *Coordinator) addWorkerLocked(wc WorkerConf) {
	if _, dup := c.workers[wc.Name]; dup || wc.Name == "" || wc.URL == "" {
		c.logf("fleet: ignoring invalid or duplicate worker %q", wc.Name)
		return
	}
	w := &worker{
		name: wc.Name,
		url:  strings.TrimRight(wc.URL, "/"),
	}
	w.ctx, w.stop = context.WithCancel(context.Background())
	c.workers[wc.Name] = w
	c.reg.Gauge(workerMetric(w.name, "up")).Set(0)
	c.wg.Add(1 + c.cfg.Slots)
	go c.healthLoop(w)
	for i := 0; i < c.cfg.Slots; i++ {
		go c.dispatchLoop(w)
	}
	c.logf("fleet: worker %s added (%s)", w.name, w.url)
}

// removeWorkerLocked finalizes a drained worker: its dispatchers and
// health probe stop, and it leaves the topology. Caller holds c.mu and
// guarantees the worker has no inflight cells.
func (c *Coordinator) removeWorkerLocked(w *worker) {
	w.gone = true
	w.stop()
	delete(c.workers, w.name)
	c.reg.Gauge(workerMetric(w.name, "up")).Set(0)
	c.cond.Broadcast()
	c.logf("fleet: worker %s removed", w.name)
}

// Reload applies a new fleet topology: added workers start immediately;
// removed workers drain — they take no new cells and leave once their
// inflight cells resolve. A queued cell the new topology leaves without
// an eligible worker fails, as it would at enqueue. This is the SIGHUP
// path (DESIGN.md §15); it never drops a job a worker can still run.
func (c *Coordinator) Reload(fc FleetConf) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keep := make(map[string]bool, len(fc.Workers))
	for _, wc := range fc.Workers {
		keep[wc.Name] = true
		if w, ok := c.workers[wc.Name]; ok {
			w.draining = false
		} else {
			c.addWorkerLocked(wc)
		}
	}
	for name, w := range c.workers {
		if keep[name] || w.draining {
			continue
		}
		w.draining = true
		c.logf("fleet: worker %s draining (removed from config)", name)
		c.retireIfDrainedLocked(w)
	}
	for _, fl := range slices.Clone(c.queue) {
		if !c.eligibleLocked(fl) {
			c.dequeueLocked(fl)
			c.resolveLocked(fl, service.StatusFailed, errNoWorker, nil)
		}
	}
	c.cond.Broadcast()
}

// healthLoop probes one worker's /healthz on a cadence, maintaining its
// up/depth/build state. The first healthy answer can also fix the
// fleet's content-addressing ID.
func (c *Coordinator) healthLoop(w *worker) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		c.probe(w)
		select {
		case <-w.ctx.Done():
			return
		case <-t.C:
		}
	}
}

// workerHealth is the subset of a worker /healthz document the
// coordinator consumes.
type workerHealth struct {
	Status  string `json:"status"`
	Queued  int    `json:"queued"`
	BuildID string `json:"build_id"`
}

// probe runs one health check against w.
func (c *Coordinator) probe(w *worker) {
	ctx, cancel := context.WithTimeout(w.ctx, workerRPCTimeout)
	defer cancel()
	resp, err := c.call(ctx, w, http.MethodGet, "/healthz", nil)
	if err != nil {
		if w.ctx.Err() == nil { // not merely a removed worker or a stopping coordinator
			c.setWorkerUp(w, false, 0, "")
		}
		return
	}
	var h workerHealth
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		c.setWorkerUp(w, false, 0, "")
		return
	}
	c.setWorkerUp(w, h.Status == "ok", h.Queued, h.BuildID)
}

// setWorkerUp applies one probe outcome, marking the worker down or up;
// either way the dispatchers wake, because the claim rule reads liveness.
func (c *Coordinator) setWorkerUp(w *worker, up bool, depth int, buildID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.probed = true
	w.depth = depth
	if buildID != "" {
		w.buildID = buildID
		if c.fleetID == "" {
			if err := c.setFleetIDLocked(buildID); err != nil {
				c.logf("fleet: %v", err)
			}
		}
		if up && buildID != c.fleetID {
			// A mismatched build addresses a different result space; its
			// answers would poison the CAS. Keep it out of rotation.
			c.logf("fleet: worker %s build mismatch (%.12s != %.12s)", w.name, buildID, c.fleetID)
			up = false
		}
	}
	was := w.up
	w.up = up
	var g int64
	if up {
		g = 1
	}
	c.reg.Gauge(workerMetric(w.name, "up")).Set(g)
	c.reg.Gauge(workerMetric(w.name, "reported_depth")).Set(int64(depth))
	if was && !up {
		c.reg.Counter(MetricWorkerLost).Inc()
		c.logf("fleet: worker %s down", w.name)
	}
	if !was && up {
		c.logf("fleet: worker %s up", w.name)
	}
	c.cond.Broadcast()
}

// rendezvousScore is the rendezvous (highest-random-weight) hash: each
// worker scores every key independently, the best score owns the key,
// and removing a worker only moves the keys it owned.
func rendezvousScore(key, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// ownerLocked returns fl's rendezvous owner: the best-scoring worker that
// is neither gone nor draining, up or not. Ownership is a preference, not
// an assignment (see claimLocked). Caller holds c.mu.
func (c *Coordinator) ownerLocked(fl *flight) *worker {
	var best *worker
	var bestScore uint64
	for _, w := range c.workers {
		if w.gone || w.draining {
			continue
		}
		// Break exact ties by name so map order never decides.
		s := rendezvousScore(fl.key, w.name)
		if best == nil || s > bestScore || (s == bestScore && w.name < best.name) {
			best, bestScore = w, s
		}
	}
	return best
}

// errNoWorker is the failure of a cell no worker may run.
const errNoWorker = "no eligible worker (all tried, draining or removed)"

// eligibleLocked reports whether some worker may still run fl: one that
// is neither gone nor draining and has not tried it. Liveness is not
// required — a down or not-yet-probed worker may come up. Caller holds
// c.mu.
func (c *Coordinator) eligibleLocked(fl *flight) bool {
	for _, w := range c.workers {
		if !w.gone && !w.draining && !fl.tried[w.name] {
			return true
		}
	}
	return false
}
