package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/scenario"
	"instrsample/internal/service"
)

// ---- harness -------------------------------------------------------------

// testWorker is one in-process isampd behind an httptest listener, with a
// kill switch that emulates a hard worker death (die).
type testWorker struct {
	name string
	srv  *service.Server
	hs   *httptest.Server
	dead atomic.Bool
}

func (tw *testWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if tw.dead.Load() {
		http.Error(w, "dead", http.StatusInternalServerError)
		return
	}
	tw.srv.Handler().ServeHTTP(w, r)
}

// die kills the worker: every later request answers 500, existing
// connections (the coordinator's SSE streams) are torn down, and its jobs
// stop, as they would with its process.
func (tw *testWorker) die() {
	tw.dead.Store(true)
	tw.hs.CloseClientConnections()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tw.srv.Shutdown(ctx) //nolint:errcheck // a forced drain is the point
}

func newTestWorker(t *testing.T, name string) *testWorker {
	t.Helper()
	cache, err := experiment.OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("worker cache: %v", err)
	}
	tw := &testWorker{name: name}
	tw.srv = service.New(service.Config{
		Workers:    2,
		QueueDepth: 32,
		Cache:      cache,
		Obs:        obs.NewState(obs.Options{Mode: obs.ModeSpans}),
	})
	tw.hs = httptest.NewServer(tw)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		tw.srv.Shutdown(ctx) //nolint:errcheck // forced shutdown is fine in tests
		tw.hs.Close()
	})
	return tw
}

// fleet is a coordinator fronting n in-process workers: the fleet
// executor behind a service.Server, as isampfleet runs it.
type fleet struct {
	t       *testing.T
	c       *Coordinator
	srv     *service.Server
	front   *httptest.Server
	workers []*testWorker
}

func startCoordinator(t *testing.T, workers []*testWorker, mod func(*Config, *service.Config)) *fleet {
	t.Helper()
	f := &fleet{t: t, workers: workers}
	var confs []WorkerConf
	for _, tw := range workers {
		confs = append(confs, WorkerConf{Name: tw.name, URL: tw.hs.URL})
	}
	cfg := Config{
		Fleet:          FleetConf{Workers: confs},
		CacheDir:       t.TempDir(),
		HealthInterval: 25 * time.Millisecond,
	}
	scfg := service.Config{
		QueueDepth: 64,
		Obs:        obs.NewState(obs.Options{Mode: obs.ModeSpans}),
	}
	if mod != nil {
		mod(&cfg, &scfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	scfg.Executor = c
	f.c = c
	f.srv = service.New(scfg)
	f.front = httptest.NewServer(f.srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		f.srv.Shutdown(ctx) //nolint:errcheck // forced shutdown is fine in tests
		f.front.Close()
	})
	return f
}

func newFleet(t *testing.T, n int, mod func(*Config, *service.Config)) *fleet {
	t.Helper()
	var workers []*testWorker
	for i := 0; i < n; i++ {
		workers = append(workers, newTestWorker(t, fmt.Sprintf("w%d", i)))
	}
	f := startCoordinator(t, workers, mod)
	f.waitUp(nil)
	return f
}

// waitUp blocks until the named workers (nil = all) are up and the fleet
// ID handshake completed.
func (f *fleet) waitUp(names []string) {
	f.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		f.c.mu.Lock()
		ok := f.c.fleetID != ""
		if names == nil {
			for _, w := range f.c.workers {
				ok = ok && w.up
			}
		} else {
			for _, name := range names {
				w := f.c.workers[name]
				ok = ok && w != nil && w.up
			}
		}
		f.c.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.t.Fatalf("fleet never came up")
}

// tv mirrors the front-door job document.
type tv struct {
	ID     string            `json:"id"`
	Status service.JobStatus `json:"status"`
	Worker string            `json:"worker"`
	Error  string            `json:"error"`
	Result json.RawMessage   `json:"result"`
	Ledger *obs.Ledger       `json:"ledger"`
}

// accept is the body of a POST /v1/jobs answer: the job's ID and status
// on a 202, the error on a refusal.
type accept struct{ ID, Status, Error string }

// postJob, getView and deleteJob are one call each against the job
// surface at base, reporting failures as errors, so client goroutines
// can use them; the fleet methods fail the test instead.
func postJob(hc *http.Client, base string, spec service.JobSpec) (accept, int, error) {
	var a accept
	body, err := json.Marshal(spec)
	if err != nil {
		return a, 0, err
	}
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return a, 0, err
	}
	defer resp.Body.Close()
	return a, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&a)
}

func getView(hc *http.Client, base, id string) (tv, error) {
	var v tv
	resp, err := hc.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET %s: status %d", id, resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

func deleteJob(hc *http.Client, base, id string) (int, error) {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained so the connection is reused
	resp.Body.Close()
	return resp.StatusCode, nil
}

func (f *fleet) post(spec service.JobSpec) (id string, status string) {
	f.t.Helper()
	a, code, err := postJob(http.DefaultClient, f.front.URL, spec)
	if err != nil || code != http.StatusAccepted {
		f.t.Fatalf("post: status %d (%s): %v", code, a.Error, err)
	}
	return a.ID, a.Status
}

func (f *fleet) view(id string) tv {
	f.t.Helper()
	v, err := getView(http.DefaultClient, f.front.URL, id)
	if err != nil {
		f.t.Fatalf("get %s: %v", id, err)
	}
	return v
}

// workerView reads a job document straight from a worker.
func (f *fleet) workerView(tw *testWorker, id string) tv {
	f.t.Helper()
	v, err := getView(http.DefaultClient, tw.hs.URL, id)
	if err != nil {
		f.t.Fatalf("%s: %v", tw.name, err)
	}
	return v
}

func (f *fleet) cancel(id string) {
	f.t.Helper()
	if _, err := deleteJob(http.DefaultClient, f.front.URL, id); err != nil {
		f.t.Fatalf("cancel %s: %v", id, err)
	}
}

// waitCond polls the job document until cond holds.
func (f *fleet) waitCond(id string, what string, cond func(tv) bool) tv {
	f.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var v tv
	for time.Now().Before(deadline) {
		v = f.view(id)
		if cond(v) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.t.Fatalf("job %s never reached %s (last: status=%s worker=%s err=%q)", id, what, v.Status, v.Worker, v.Error)
	return v
}

func (f *fleet) waitTerminal(id string) tv {
	f.t.Helper()
	return f.waitCond(id, "terminal", func(v tv) bool { return v.Status.Terminal() })
}

func (f *fleet) waitRunningOn(id, worker string) tv {
	f.t.Helper()
	return f.waitCond(id, "running on "+worker, func(v tv) bool {
		return v.Status == service.StatusRunning && v.Worker == worker
	})
}

func (f *fleet) counter(name string) uint64 { return f.c.reg.Counter(name).Value() }

// src is a counted-loop assembly program; n varies the cell key (and the
// run time — 1<<40 is effectively infinite, stopped only by cancel).
func src(n int64) string {
	return fmt.Sprintf(`func main() {
entry:
  const i, 0
  const n, %d
  const one, 1
loop:
  cmplt c, i, n
  br c, body, done
body:
  add i, i, one
  jmp loop
done:
  ret i
}`, n)
}

func quickSpec(n int64) service.JobSpec { return service.JobSpec{Source: src(n)} }

func infSpec(i int64) service.JobSpec { return service.JobSpec{Source: src(1<<40 + i)} }

// ownerOf returns the rendezvous owner of a spec among the named
// workers — the same choice ownerLocked makes when none is draining.
func ownerOf(spec service.JobSpec, names ...string) string {
	key := spec.CellKey()
	best, bestScore := "", uint64(0)
	for _, name := range names {
		if s := rendezvousScore(key, name); best == "" || s > bestScore {
			best, bestScore = name, s
		}
	}
	return best
}

// specOwnedBy scans quick specs until one lands on the wanted worker.
func specOwnedBy(t *testing.T, want string, from int64, names ...string) service.JobSpec {
	t.Helper()
	for n := from; n < from+200; n++ {
		if spec := quickSpec(n); ownerOf(spec, names...) == want {
			return spec
		}
	}
	t.Fatalf("no spec owned by %s in [%d,%d)", want, from, from+200)
	return service.JobSpec{}
}

// infSpecOwnedBy scans effectively-infinite specs for one owned by want.
func infSpecOwnedBy(t *testing.T, want string, from int64, names ...string) service.JobSpec {
	t.Helper()
	for i := from; i < from+200; i++ {
		if spec := infSpec(i); ownerOf(spec, names...) == want {
			return spec
		}
	}
	t.Fatalf("no infinite spec owned by %s", want)
	return service.JobSpec{}
}

func compact(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return buf.String()
}

// goroutinesBackTo polls runtime.NumGoroutine until it is at most base
// or within has passed, and returns the last count with, when it is
// above base, every goroutine's stack.
func goroutinesBackTo(base int, within time.Duration) (int, string) {
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return n, ""
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return n, string(buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hasRow reports whether the ledger has a stage row with the cause. The
// requeue reopens queue-wait, so a requeued job has several such rows.
func hasRow(l *obs.Ledger, stage obs.Stage, cause string) bool {
	if l == nil {
		return false
	}
	for _, row := range l.Rows {
		if row.Stage == stage && row.Cause == cause {
			return true
		}
	}
	return false
}

func ledgerCause(l *obs.Ledger, stage obs.Stage) (string, bool) {
	if l == nil {
		return "", false
	}
	for _, row := range l.Rows {
		if row.Stage == stage {
			return row.Cause, true
		}
	}
	return "", false
}

// ---- tests ---------------------------------------------------------------

// TestFleetMixedBatch drives a mixed batch through a 3-worker fleet and
// then proves the CAS fast path: a resubmitted cell resolves instantly
// from the coordinator's replica with byte-identical result JSON. The
// batch includes a scenario-family job, whose fleet result must match
// an independent single-daemon run of the same spec byte for byte.
func TestFleetMixedBatch(t *testing.T) {
	f := newFleet(t, 3, nil)
	scn := service.JobSpec{
		Scenario:      &scenario.Family{Name: "fleet-mix", Seed: 7, Count: 2, MaxFuncs: 3, MaxDepth: 3},
		ScenarioIndex: 1,
		Instrument:    []string{"call-edge"},
	}
	specs := []service.JobSpec{
		quickSpec(101), quickSpec(202), quickSpec(303), quickSpec(404),
		{Source: src(505), Instrument: []string{"block-count"}},
		{Source: src(606), Instrument: []string{"edge"}, Variation: "partial"},
		scn,
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i], _ = f.post(spec)
	}
	results := make([]string, len(specs))
	for i, id := range ids {
		v := f.waitTerminal(id)
		if v.Status != service.StatusDone {
			t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
		}
		if len(v.Result) == 0 {
			t.Fatalf("job %s: no result", id)
		}
		results[i] = compact(t, v.Result)
	}

	// Resubmission: the replica already holds every cell, so the job is
	// terminal in the 202 itself and the bytes match the original run.
	for i, spec := range specs {
		id, status := f.post(spec)
		if status != string(service.StatusDone) {
			t.Fatalf("resubmit %d: accepted with status %q, want done", i, status)
		}
		v := f.view(id)
		if got := compact(t, v.Result); got != results[i] {
			t.Fatalf("resubmit %d: result differs from original\n got: %s\nwant: %s", i, got, results[i])
		}
	}
	if hits := f.counter(MetricCASLocalHit); hits != uint64(len(specs)) {
		t.Fatalf("cas local hits = %d, want %d", hits, len(specs))
	}

	// Cross-node determinism: a standalone daemon with its own empty
	// cache, no fleet involved, must produce the scenario job's exact
	// bytes. This is the fleet-vs-single-node contract the CAS relies on.
	solo := newTestWorker(t, "solo")
	body, err := json.Marshal(scn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(solo.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("solo submit: %v", err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatalf("solo accept: %v", err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(15 * time.Second)
	var soloResult string
	for {
		resp, err := http.Get(solo.hs.URL + "/v1/jobs/" + acc.ID)
		if err != nil {
			t.Fatalf("solo poll: %v", err)
		}
		var v struct {
			Status service.JobStatus `json:"status"`
			Error  string            `json:"error"`
			Result json.RawMessage   `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("solo view: %v", err)
		}
		if v.Status == service.StatusDone {
			soloResult = compact(t, v.Result)
			break
		}
		if v.Status == service.StatusFailed || v.Status == service.StatusCancelled {
			t.Fatalf("solo scenario job: status %s (%s)", v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("solo scenario job: not terminal (status %s)", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fleetResult := results[len(results)-1]; soloResult != fleetResult {
		t.Fatalf("scenario result differs between fleet and standalone daemon\nfleet: %s\n solo: %s",
			fleetResult, soloResult)
	}
}

// TestFleetSingleFlightPiggyback submits the same cell twice while it
// runs: the duplicate attaches to the in-flight owner with a ledger cause
// link, cancelling the duplicate leaves the owner running, and the
// proxied SSE stream closes with ledger + done events.
func TestFleetSingleFlightPiggyback(t *testing.T) {
	f := newFleet(t, 1, nil)
	spec := infSpec(1)
	id1, _ := f.post(spec)
	f.waitCond(id1, "running", func(v tv) bool { return v.Status == service.StatusRunning })

	id2, _ := f.post(spec)
	if got := f.counter(MetricMemoPiggy); got != 1 {
		t.Fatalf("piggyback counter = %d, want 1", got)
	}
	v2 := f.view(id2)
	if cause, ok := ledgerCause(v2.Ledger, obs.StageMemoFlight); !ok || cause != id1 {
		t.Fatalf("duplicate ledger memo-flight cause = %q (found %v), want %q", cause, ok, id1)
	}

	// Cancelling the duplicate must not abort the shared flight.
	f.cancel(id2)
	if v := f.waitTerminal(id2); v.Status != service.StatusCancelled {
		t.Fatalf("duplicate: status %s, want cancelled", v.Status)
	}
	if v := f.view(id1); v.Status != service.StatusRunning {
		t.Fatalf("owner: status %s after duplicate cancel, want running", v.Status)
	}

	// The duplicate's proxied event stream still serves ledger + done.
	resp, err := http.Get(f.front.URL + "/v1/jobs/" + id2 + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(stream), "event: ledger") || !strings.Contains(string(stream), "event: done") {
		t.Fatalf("event stream missing ledger/done:\n%s", stream)
	}

	// Last rider cancels: the flight aborts on the worker.
	f.cancel(id1)
	if v := f.waitTerminal(id1); v.Status != service.StatusCancelled {
		t.Fatalf("owner: status %s, want cancelled", v.Status)
	}
}

// TestFleetSingleFlightKeysOverlap: the overlap flag is part of the
// flight key. A rider whose overlap flag differs from the in-flight
// owner's never attaches — its result carries (or lacks) the overlap
// scores the owner's does not — in either direction, while a rider
// whose flag matches still piggybacks with a cause link.
func TestFleetSingleFlightKeysOverlap(t *testing.T) {
	f := newFleet(t, 1, func(cfg *Config, _ *service.Config) { cfg.Slots = 4 })
	plainA := service.JobSpec{Source: src(1<<40 + 80), Instrument: []string{"block-count"}}
	overlapA := plainA
	overlapA.Overlap = true
	overlapB := service.JobSpec{Source: src(1<<40 + 81), Instrument: []string{"block-count"}, Overlap: true}
	plainB := overlapB
	plainB.Overlap = false

	ownerA, _ := f.post(plainA)
	ownerB, _ := f.post(overlapB)
	mismatchA, _ := f.post(overlapA) // overlap rider, plain owner
	mismatchB, _ := f.post(plainB)   // plain rider, overlap owner
	if got := f.counter(MetricMemoPiggy); got != 0 {
		t.Fatalf("piggyback counter = %d after riders with a different overlap flag, want 0", got)
	}
	riderA, _ := f.post(plainA)
	riderB, _ := f.post(overlapB)
	if got := f.counter(MetricMemoPiggy); got != 2 {
		t.Fatalf("piggyback counter = %d after riders with a matching overlap flag, want 2", got)
	}
	for rider, owner := range map[string]string{riderA: ownerA, riderB: ownerB} {
		if cause, ok := ledgerCause(f.view(rider).Ledger, obs.StageMemoFlight); !ok || cause != owner {
			t.Errorf("rider %s: memo-flight cause = %q (found %v), want %q", rider, cause, ok, owner)
		}
	}
	for _, id := range []string{ownerA, ownerB, mismatchA, mismatchB, riderA, riderB} {
		f.cancel(id)
		if v := f.waitTerminal(id); v.Status != service.StatusCancelled {
			t.Errorf("job %s: status %s, want cancelled", id, v.Status)
		}
	}
}

// TestFleetWorkerLossRequeues kills a worker mid-job: the cell requeues on
// the surviving worker exactly once, with the requeue cause visible in the
// job's ledger.
func TestFleetWorkerLossRequeues(t *testing.T) {
	f := newFleet(t, 2, nil)
	id, _ := f.post(infSpec(2))
	v := f.waitCond(id, "running", func(v tv) bool { return v.Status == service.StatusRunning && v.Worker != "" })
	victim := v.Worker
	survivor := "w0"
	if victim == "w0" {
		survivor = "w1"
	}

	for _, tw := range f.workers {
		if tw.name == victim {
			tw.die()
		}
	}
	v = f.waitRunningOn(id, survivor)
	if !hasRow(v.Ledger, obs.StageQueueWait, "requeue:"+victim) {
		t.Fatalf("no queue-wait row with cause requeue:%s in ledger: %+v", victim, v.Ledger)
	}
	if got := f.counter(MetricRequeues); got != 1 {
		t.Fatalf("requeues = %d, want 1", got)
	}
	if got := f.counter(MetricWorkerLost); got == 0 {
		t.Fatalf("worker-lost counter = 0, want > 0")
	}

	f.cancel(id)
	if v := f.waitTerminal(id); v.Status != service.StatusCancelled {
		t.Fatalf("status %s, want cancelled", v.Status)
	}
}

// TestFleetWorkerLossExhaustsFleet kills the only worker: the requeue is
// at most once per worker, so the job fails instead of spinning.
func TestFleetWorkerLossExhaustsFleet(t *testing.T) {
	f := newFleet(t, 1, nil)
	id, _ := f.post(infSpec(3))
	f.waitCond(id, "running", func(v tv) bool { return v.Status == service.StatusRunning })
	f.workers[0].die()
	v := f.waitTerminal(id)
	if v.Status != service.StatusFailed {
		t.Fatalf("status %s, want failed", v.Status)
	}
	if !strings.Contains(v.Error, "no eligible worker") {
		t.Fatalf("error %q, want a no-eligible-worker failure", v.Error)
	}
}

// TestFleetStealsFromDownPeer starts a fleet whose first worker is dead on
// arrival: cells sharded onto it are stolen and completed by the healthy
// peer — no job is lost to a bad shard assignment.
func TestFleetStealsFromDownPeer(t *testing.T) {
	w0 := newTestWorker(t, "w0")
	w0.die()
	w1 := newTestWorker(t, "w1")
	f := startCoordinator(t, []*testWorker{w0, w1}, nil)
	f.waitUp([]string{"w1"})

	sawDead := false
	var ids []string
	for n := int64(0); n < 12; n++ {
		spec := quickSpec(700 + n)
		if ownerOf(spec, "w0", "w1") == "w0" {
			sawDead = true
		}
		id, _ := f.post(spec)
		ids = append(ids, id)
	}
	if !sawDead {
		t.Fatalf("no cell sharded onto the dead worker; widen the batch")
	}
	for _, id := range ids {
		if v := f.waitTerminal(id); v.Status != service.StatusDone {
			t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
		}
	}
	if got := f.counter(MetricSteals); got == 0 {
		t.Fatalf("steals = 0, want > 0")
	}
}

// TestFleetReloadDrainsBusyWorker removes the worker running a job from
// the topology: the worker drains (the job keeps running, new work avoids
// it) and it leaves the fleet only after its last cell resolves.
func TestFleetReloadDrainsBusyWorker(t *testing.T) {
	f := newFleet(t, 2, nil)
	id, _ := f.post(infSpec(4))
	v := f.waitCond(id, "running", func(v tv) bool { return v.Status == service.StatusRunning && v.Worker != "" })
	victim := v.Worker
	survivor := "w0"
	if victim == "w0" {
		survivor = "w1"
	}

	var keep []WorkerConf
	for _, tw := range f.workers {
		if tw.name == survivor {
			keep = append(keep, WorkerConf{Name: tw.name, URL: tw.hs.URL})
		}
	}
	f.c.Reload(FleetConf{Workers: keep})

	f.c.mu.Lock()
	w := f.c.workers[victim]
	draining := w != nil && w.draining
	f.c.mu.Unlock()
	if !draining {
		t.Fatalf("worker %s not draining after reload", victim)
	}

	// New work lands only on the surviving worker...
	for n := int64(0); n < 4; n++ {
		qid, _ := f.post(quickSpec(900 + n))
		if qv := f.waitTerminal(qid); qv.Status != service.StatusDone {
			t.Fatalf("job %s: status %s (%s)", qid, qv.Status, qv.Error)
		}
	}
	// ...and, drained, not dropped, the job the reload found running
	// still runs after them.
	if v := f.view(id); v.Status != service.StatusRunning {
		t.Fatalf("job %s: status %s after reload, want running", id, v.Status)
	}
	f.c.mu.Lock()
	stillThere := f.c.workers[victim] != nil
	f.c.mu.Unlock()
	if !stillThere {
		t.Fatalf("draining worker %s removed while its job was running", victim)
	}

	f.cancel(id)
	f.waitTerminal(id)
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.c.mu.Lock()
		gone := f.c.workers[victim] == nil
		f.c.mu.Unlock()
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never retired after draining", victim)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetRemoteCASHitOnSteal warms one worker's cache under a solo
// coordinator, then reconstructs the fleet and forces a steal of the warm
// cell: the stealing path probes the owner's CAS and answers without a
// recompute, byte-identical to the original run.
func TestFleetRemoteCASHitOnSteal(t *testing.T) {
	w0 := newTestWorker(t, "w0")
	w1 := newTestWorker(t, "w1")

	warm := specOwnedBy(t, "w0", 1100, "w0", "w1")

	solo := startCoordinator(t, []*testWorker{w0}, nil)
	solo.waitUp(nil)
	warmID, _ := solo.post(warm)
	v := solo.waitTerminal(warmID)
	if v.Status != service.StatusDone {
		t.Fatalf("warmup: status %s (%s)", v.Status, v.Error)
	}
	want := compact(t, v.Result)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	solo.srv.Shutdown(ctx) //nolint:errcheck
	cancel()
	solo.front.Close()

	f := startCoordinator(t, []*testWorker{w0, w1}, func(cfg *Config, _ *service.Config) {
		cfg.Slots = 1
	})
	f.waitUp(nil)

	// Occupy w0's only slot, then queue two w0-owned cells behind it; the
	// idle peer takes each oldest cell it may claim, the warm one last.
	infID, _ := f.post(infSpecOwnedBy(t, "w0", 10, "w0", "w1"))
	f.waitRunningOn(infID, "w0")
	fillID, _ := f.post(specOwnedBy(t, "w0", 1300, "w0", "w1"))
	stealID, _ := f.post(warm)

	sv := f.waitTerminal(stealID)
	if sv.Status != service.StatusDone {
		t.Fatalf("stolen cell: status %s (%s)", sv.Status, sv.Error)
	}
	if got := compact(t, sv.Result); got != want {
		t.Fatalf("remote CAS hit result differs from original run\n got: %s\nwant: %s", got, want)
	}
	if got := f.counter(MetricCASRemoteHit); got != 1 {
		t.Fatalf("remote CAS hits = %d, want 1", got)
	}
	if got := f.counter(MetricSteals); got == 0 {
		t.Fatalf("steals = 0, want > 0")
	}
	// The probed payload replicated into the coordinator's own CAS.
	addr := experiment.CASAddr(experiment.BuildID(), warm.CellKey())
	resp, err := http.Get(f.front.URL + "/v1/cas/" + addr)
	if err != nil {
		t.Fatalf("front cas get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front cas get: status %d, want 200", resp.StatusCode)
	}

	f.cancel(infID)
	f.waitTerminal(infID)
	f.waitTerminal(fillID)
}

// TestFleetDuplicateDuringSteal attaches a duplicate to a queued cell,
// then lets an idle peer steal and compute it: one computation fans out to
// both jobs with identical bytes.
func TestFleetDuplicateDuringSteal(t *testing.T) {
	f := newFleet(t, 2, func(cfg *Config, _ *service.Config) {
		cfg.Slots = 1
	})
	// Pin both workers' single slots with infinite cells they own.
	infA, _ := f.post(infSpecOwnedBy(t, "w0", 20, "w0", "w1"))
	infB, _ := f.post(infSpecOwnedBy(t, "w1", 40, "w0", "w1"))
	f.waitRunningOn(infA, "w0")
	f.waitRunningOn(infB, "w1")

	fill, _ := f.post(specOwnedBy(t, "w0", 1500, "w0", "w1"))
	target := specOwnedBy(t, "w0", 1700, "w0", "w1")
	id1, _ := f.post(target)
	id2, _ := f.post(target) // duplicate of a queued, soon-stolen cell
	if got := f.counter(MetricMemoPiggy); got != 1 {
		t.Fatalf("piggyback counter = %d, want 1", got)
	}

	// Free w1: it takes the oldest cells it may claim — fill, then the
	// target — and computes them.
	f.cancel(infB)
	f.waitTerminal(infB)
	v1, v2 := f.waitTerminal(id1), f.waitTerminal(id2)
	if v1.Status != service.StatusDone || v2.Status != service.StatusDone {
		t.Fatalf("statuses %s/%s, want done/done (%s/%s)", v1.Status, v2.Status, v1.Error, v2.Error)
	}
	if a, b := compact(t, v1.Result), compact(t, v2.Result); a != b {
		t.Fatalf("duplicate results differ:\n%s\n%s", a, b)
	}
	if got := f.counter(MetricSteals); got == 0 {
		t.Fatalf("steals = 0, want > 0")
	}
	f.cancel(infA)
	f.waitTerminal(infA)
	f.waitTerminal(fill)
}

// TestFleetIdlePeerTakesCell: while the owner's only slot runs a long
// job, an idle peer takes the owner's next cell at once instead of
// leaving it queued behind that job. The cell misses the owner's CAS, so
// its ledger ends steal, remote-cache-probe, dispatch, export: the
// peer's run is booked to dispatch, not to the probe (the peer's own
// ledger of the run fits inside the dispatch row), and the rows still
// sum to total_ns.
func TestFleetIdlePeerTakesCell(t *testing.T) {
	f := newFleet(t, 2, func(cfg *Config, _ *service.Config) { cfg.Slots = 1 })
	infID, _ := f.post(infSpecOwnedBy(t, "w0", 60, "w0", "w1"))
	f.waitRunningOn(infID, "w0")

	id, _ := f.post(specOwnedBy(t, "w0", 1900, "w0", "w1"))
	v := f.waitTerminal(id)
	if v.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
	}
	if iv := f.view(infID); iv.Status != service.StatusRunning {
		t.Fatalf("owner's long job: status %s, want still running", iv.Status)
	}
	if got := f.counter(MetricSteals); got < 1 {
		t.Fatalf("steals = %d, want >= 1", got)
	}
	want := []obs.Stage{obs.StageSteal, obs.StageRemoteProbe, obs.StageDispatch, obs.StageExport}
	rows := v.Ledger.Rows
	if len(rows) < len(want) {
		t.Fatalf("ledger rows %+v, want them to end %v", rows, want)
	}
	tail := rows[len(rows)-len(want):]
	for i, st := range want {
		if tail[i].Stage != st {
			t.Fatalf("ledger rows %+v, want them to end %v", rows, want)
		}
	}
	if tail[0].Cause != "w0→w1" || tail[2].Cause != "w1" {
		t.Errorf("steal cause %q, dispatch cause %q; want w0→w1 and w1", tail[0].Cause, tail[2].Cause)
	}
	// The thief's own run of the cell, from its accept to its terminal
	// state, happens inside the coordinator's dispatch row, whatever the
	// host's timing: booking that run to any other row leaves the
	// dispatch row shorter than the run.
	run := f.workerView(f.workers[1], "job-000001")
	if run.Status != service.StatusDone || run.Ledger == nil {
		t.Fatalf("thief's job: status %s, ledger %v; want done with a ledger", run.Status, run.Ledger)
	}
	if run.Ledger.TotalNs > tail[2].Ns {
		t.Errorf("thief's run took %d ns, longer than the dispatch row's %d ns that contains it", run.Ledger.TotalNs, tail[2].Ns)
	}
	if sum := v.Ledger.Sum(); sum != v.Ledger.TotalNs {
		t.Errorf("ledger rows sum to %d ns, total_ns is %d", sum, v.Ledger.TotalNs)
	}
	f.cancel(infID)
	f.waitTerminal(infID)
}

// TestFleetOwnerKeepsCell: with every worker idle, a cell runs on its
// rendezvous owner, so no steal is counted.
func TestFleetOwnerKeepsCell(t *testing.T) {
	f := newFleet(t, 2, nil)
	id, _ := f.post(specOwnedBy(t, "w0", 2100, "w0", "w1"))
	v := f.waitTerminal(id)
	if v.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
	}
	if cause, ok := ledgerCause(v.Ledger, obs.StageDispatch); !ok || cause != "w0" {
		t.Errorf("dispatch cause %q (found %v), want w0", cause, ok)
	}
	if got := f.counter(MetricSteals); got != 0 {
		t.Errorf("steals = %d, want 0", got)
	}
}

// TestFleetReloadStrandsQueuedCell: a reload that drains the last worker
// a queued cell may run on fails that cell with "no eligible worker", as
// enqueue would, while the drained worker's running job keeps running.
func TestFleetReloadStrandsQueuedCell(t *testing.T) {
	f := newFleet(t, 1, func(cfg *Config, _ *service.Config) { cfg.Slots = 1 })
	infID, _ := f.post(infSpec(90))
	f.waitRunningOn(infID, "w0")
	id, _ := f.post(quickSpec(2300))
	if v := f.view(id); v.Status != service.StatusQueued {
		t.Fatalf("job %s: status %s, want queued behind the long job", id, v.Status)
	}

	f.c.Reload(FleetConf{})
	if v := f.waitTerminal(id); v.Status != service.StatusFailed || !strings.Contains(v.Error, "no eligible worker") {
		t.Fatalf("stranded job: status %s (%q), want failed with no eligible worker", v.Status, v.Error)
	}
	if v := f.view(infID); v.Status != service.StatusRunning {
		t.Fatalf("drained worker's job: status %s, want running", v.Status)
	}
	f.cancel(infID)
	f.waitTerminal(infID)
}

// congestedWorker is a scripted worker that is healthy but answers every
// job submission 429 with Retry-After: 1, signalling each on posted.
func congestedWorker(posted chan<- struct{}) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","queued":0,"build_id":%q}`, experiment.BuildID())
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		select {
		case posted <- struct{}{}:
		default:
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "busy", http.StatusTooManyRequests)
	})
	return mux
}

// TestFleetDrainDuring429Backoff: a worker removed by reload while its
// dispatcher backs off a 429 leaves the fleet when the backoff ends, and
// the pushed-back cell runs on the survivor.
func TestFleetDrainDuring429Backoff(t *testing.T) {
	posted := make(chan struct{}, 1)
	hs := httptest.NewServer(congestedWorker(posted))
	t.Cleanup(hs.Close)
	w1 := newTestWorker(t, "w1")
	f := startCoordinator(t, []*testWorker{w1}, func(cfg *Config, _ *service.Config) {
		cfg.Fleet.Workers = append(cfg.Fleet.Workers, WorkerConf{Name: "w0", URL: hs.URL})
	})
	f.waitUp(nil)

	id, _ := f.post(specOwnedBy(t, "w0", 2500, "w0", "w1"))
	select {
	case <-posted:
	case <-time.After(10 * time.Second):
		t.Fatal("the congested owner never received the cell")
	}
	f.c.Reload(FleetConf{Workers: []WorkerConf{{Name: "w1", URL: w1.hs.URL}}})
	if v := f.waitTerminal(id); v.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		f.c.mu.Lock()
		gone := f.c.workers["w0"] == nil
		f.c.mu.Unlock()
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker w0, drained during its 429 backoff, never left the fleet")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetCongestedOwnerYieldsCell: an owner that answers 429 gives its
// cell back at once and keeps its slot busy until its Retry-After ends,
// so an idle peer runs the cell and the owner is asked only once.
func TestFleetCongestedOwnerYieldsCell(t *testing.T) {
	var posts atomic.Int32
	congested := congestedWorker(make(chan struct{}, 1))
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			posts.Add(1)
		}
		congested.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	w1 := newTestWorker(t, "w1")
	f := startCoordinator(t, []*testWorker{w1}, func(cfg *Config, _ *service.Config) {
		cfg.Slots = 1
		cfg.Fleet.Workers = append(cfg.Fleet.Workers, WorkerConf{Name: "w0", URL: hs.URL})
	})
	f.waitUp(nil)

	id, _ := f.post(specOwnedBy(t, "w0", 2700, "w0", "w1"))
	if v := f.waitTerminal(id); v.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
	}
	if n := w1.srv.Registry().Counter(service.MetricJobsAccepted).Value(); n != 1 {
		t.Errorf("peer w1 accepted %d jobs, want 1", n)
	}
	if n := posts.Load(); n != 1 {
		t.Errorf("congested owner w0 saw %d POSTs, want 1", n)
	}
}

// fakeWorker is a scripted worker: it completes every job instantly with
// a canned result and serves a fixed (corrupt) CAS payload.
func fakeWorker(result, casBody []byte) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","queued":0,"build_id":%q}`, experiment.BuildID())
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"rj-1","status":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/rj-1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: done\ndata: {\"status\":\"done\"}\n\n")
	})
	mux.HandleFunc("GET /v1/jobs/rj-1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":"rj-1","status":"done","result":%s}`, result)
	})
	mux.HandleFunc("GET /v1/cas/{addr}", func(w http.ResponseWriter, r *http.Request) {
		w.Write(casBody) //nolint:errcheck
	})
	return mux
}

// TestFleetCASIntegrityReject points the coordinator at a worker whose
// CAS serves corrupt bytes: replication rejects the payload (twice — the
// refetch), the job still succeeds via the job document, and the corrupt
// entry never lands in the coordinator's replica. The front-door PUT
// endpoint rejects the same way, counted as on every node.
func TestFleetCASIntegrityReject(t *testing.T) {
	canned := []byte(`{"return":42,"stats":{"cycles":7},"code_size":3}`)
	corrupt := []byte(`{"cell":"job not-this-cell","return":1}`)
	hs := httptest.NewServer(fakeWorker(canned, corrupt))
	defer hs.Close()

	f := startCoordinator(t, nil, func(cfg *Config, _ *service.Config) {
		cfg.Fleet.Workers = []WorkerConf{{Name: "fake", URL: hs.URL}}
	})
	f.waitUp([]string{"fake"})

	spec := quickSpec(777)
	id, _ := f.post(spec)
	v := f.waitTerminal(id)
	if v.Status != service.StatusDone {
		t.Fatalf("status %s (%s), want done", v.Status, v.Error)
	}
	if got, want := compact(t, v.Result), string(canned); got != want {
		t.Fatalf("result %s, want the worker's canned document %s", got, want)
	}
	if got := f.counter(MetricCASRejected); got != 2 {
		t.Fatalf("integrity rejects = %d, want 2 (reject + refetch)", got)
	}
	addr := experiment.CASAddr(experiment.BuildID(), spec.CellKey())
	resp, err := http.Get(f.front.URL + "/v1/cas/" + addr)
	if err != nil {
		t.Fatalf("front cas get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt payload reached the replica: cas get status %d, want 404", resp.StatusCode)
	}

	// Front-door PUT of a corrupt payload is refused the same way.
	req, _ := http.NewRequest(http.MethodPut, f.front.URL+"/v1/cas/"+addr, bytes.NewReader(corrupt))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("front cas put: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("front cas put: status %d, want 422", resp.StatusCode)
	}
	if got := f.counter(service.MetricCASRejected); got != 1 {
		t.Fatalf("front-door put rejects = %d, want 1", got)
	}
	if got := f.counter(MetricCASRejected); got != 2 {
		t.Fatalf("worker payload rejects = %d after front-door put, want 2", got)
	}
}

// hungWorker is a scripted worker that accepts every job and then never
// finishes it: the event stream stays open without a done event, and
// neither a DELETE nor a job fetch is ever answered — until release
// closes or the client gives up.
func hungWorker(release <-chan struct{}) http.Handler {
	var seq atomic.Int64
	hang := func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","queued":0,"build_id":%q}`, experiment.BuildID())
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"rj-%d","status":"queued"}`, seq.Add(1))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		hang(w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", hang)
	mux.HandleFunc("DELETE /v1/jobs/{id}", hang)
	return mux
}

// TestFleetForcedDrainHungWorker: past the drain budget, Shutdown
// resolves every front-door job cancelled locally — running cells, a
// rider on one of them, and a cell still queued — and returns promptly
// even though the worker holding the running cells never answers.
func TestFleetForcedDrainHungWorker(t *testing.T) {
	release := make(chan struct{})
	hs := httptest.NewServer(hungWorker(release))
	t.Cleanup(func() {
		close(release)
		hs.Close()
	})
	f := startCoordinator(t, nil, func(cfg *Config, _ *service.Config) {
		cfg.Fleet.Workers = []WorkerConf{{Name: "hung", URL: hs.URL}}
		cfg.Slots = 2
	})
	f.waitUp([]string{"hung"})

	running1, _ := f.post(infSpec(70))
	rider, _ := f.post(infSpec(70))
	running2, _ := f.post(infSpec(71))
	for _, id := range []string{running1, running2} {
		f.waitRunningOn(id, "hung")
	}
	queued, _ := f.post(infSpec(72)) // both dispatch slots are held by the hung streams
	if v := f.view(queued); v.Status != service.StatusQueued {
		t.Fatalf("job %s: status %s, want queued behind the hung cells", queued, v.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- f.srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != context.DeadlineExceeded {
			t.Errorf("forced shutdown returned %v, want DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown wedged on a hung worker")
	}
	if took := time.Since(start); took >= workerRPCTimeout {
		t.Errorf("Shutdown took %v: it waited on the hung worker (remote calls time out after %v)", took, workerRPCTimeout)
	}
	for _, id := range []string{running1, rider, running2, queued} {
		if v := f.view(id); v.Status != service.StatusCancelled {
			t.Errorf("job %s after forced shutdown: status %s, want cancelled", id, v.Status)
		}
	}
}

// TestFleetBackpressure fills the coordinator's bounded queue and checks
// the 429 carries a sane drain-rate-derived Retry-After.
func TestFleetBackpressure(t *testing.T) {
	f := newFleet(t, 1, func(cfg *Config, scfg *service.Config) {
		cfg.Slots = 1
		scfg.QueueDepth = 2
	})
	// One running cell plus a full queue.
	ids := []string{}
	id, _ := f.post(infSpec(60))
	ids = append(ids, id)
	f.waitCond(id, "running", func(v tv) bool { return v.Status == service.StatusRunning })
	for i := int64(0); i < 2; i++ {
		qid, _ := f.post(infSpec(61 + i))
		ids = append(ids, qid)
	}
	body, _ := json.Marshal(infSpec(99))
	resp, err := http.Post(f.front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	var sec int
	if _, err := fmt.Sscanf(ra, "%d", &sec); err != nil || sec < 1 || sec > 30 {
		t.Fatalf("Retry-After %q, want an integer in [1,30]", ra)
	}
	for _, id := range ids {
		f.cancel(id)
		f.waitTerminal(id)
	}
}

// TestCoordinatorStopReleasesConnections: a coordinator stopped by its
// server's shutdown closes its connections to the workers, which stay
// up, so no connection goroutine outlives it on either end.
func TestCoordinatorStopReleasesConnections(t *testing.T) {
	workers := []*testWorker{newTestWorker(t, "w0"), newTestWorker(t, "w1")}
	http.DefaultClient.CloseIdleConnections()
	base := runtime.NumGoroutine()
	f := startCoordinator(t, workers, nil)
	f.waitUp(nil)
	var ids []string
	for n := int64(0); n < 8; n++ {
		id, _ := f.post(quickSpec(3100 + n))
		ids = append(ids, id)
	}
	for _, id := range ids {
		if v := f.waitTerminal(id); v.Status != service.StatusDone {
			t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	f.front.Close()
	http.DefaultClient.CloseIdleConnections()
	if n, stacks := goroutinesBackTo(base, time.Second); n > base {
		t.Fatalf("%d goroutines 1s after the coordinator stopped, %d before it started:\n%s", n, base, stacks)
	}
}
