package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instrsample/internal/obs"
	"instrsample/internal/service"
)

// ---- the seeded op sequence -----------------------------------------------

// weighted is one alternative of a mix table.
type weighted struct {
	name   string
	weight int
}

// The mix tables fresh specs draw from: every suite benchmark, the four
// framework variations and runs without one, the trigger family, the
// sample intervals and 0–2 distinct instrumentations.
var (
	mixBenches = []weighted{
		{"compress", 3}, {"jess", 3}, {"db", 4}, {"javac", 3}, {"mpegaudio", 2}, {"mtrt", 2},
		{"jack", 2}, {"optc", 2}, {"pbob", 1}, {"volano", 1}, {"resonant", 1},
	}
	mixVariations  = []weighted{{"", 2}, {"full", 4}, {"partial", 2}, {"nodup", 2}, {"hybrid", 2}}
	mixTriggers    = []weighted{{"counter", 5}, {"perthread", 2}, {"timer", 2}, {"random", 2}}
	mixInstruments = []weighted{
		{"call-edge", 4}, {"field-access", 4}, {"edge", 2}, {"block-count", 2}, {"path", 1}, {"value", 1},
	}
	mixIntervals = []int64{200, 1000, 5000}
)

// The mix's per-op odds.
const (
	pCancel    = 0.10 // a program only a DELETE ends
	pRecancel  = 0.06 // a cancelled op's spec, submitted again
	pReuse     = 0.25 // an earlier fresh op's spec, verbatim
	pSubscribe = 0.30 // a fresh or cancel op gets an SSE reader,
	pStall     = 0.40 // which reads nothing until the job is terminal
	pVerify    = 0.15 // the invariant oracle on a framework run
	pOverlap   = 0.10 // the exhaustive reference on an instrumented run
)

// The sequence TestMixedTraffic runs: its seed, its length, and how many
// clients drive it at once.
const (
	trafficSeed    = 1
	trafficOps     = 48
	trafficClients = 4
)

// opKind is what an op submits and how its client ends it.
type opKind int

const (
	opFresh    opKind = iota // a spec no earlier op submitted; runs to done
	opReuse                  // an earlier fresh op's spec; done, with the same result
	opCancel                 // a program only a DELETE ends; cancelled once seen running
	opRecancel               // a cancelled op's spec again: runs again, is cancelled again
)

func (k opKind) String() string {
	return [...]string{"fresh", "reuse", "cancel", "recancel"}[k]
}

// trafficOp is one planned operation.
type trafficOp struct {
	kind      opKind
	spec      service.JobSpec
	of        int  // reuse and recancel: the op whose spec this one repeats
	subscribe bool // read the job's SSE stream
	stall     bool // ...only once the job is terminal
}

// burstAt and killAt are the two fixed points of a sequence of n ops:
// the op whose first POST meets a full front door, and the cancel op
// the fleet's w1 dies running.
func burstAt(n int) int { return n / 3 }
func killAt(n int) int  { return 2 * n / 3 }

// trafficPlan expands a seed into n ops. It is a pure function of its
// arguments. Fresh specs have distinct cell keys, so each one runs its
// VM wherever it lands, and every cancel op bakes its index into its
// program, so no two share a flight and none can finish on its own. A
// cancelled op's spec is submitted again at most once.
func trafficPlan(seed int64, n int) []trafficOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]trafficOp, n)
	keys := map[string]bool{}
	var fresh, cancelled []int
	for i := range ops {
		op := &ops[i]
		op.of = -1
		r := rng.Float64()
		switch {
		case i == killAt(n):
			op.kind, op.spec = opCancel, killSpec(n)
		case i != burstAt(n) && r < pCancel:
			op.kind, op.spec = opCancel, infSpec(int64(i))
		case i != burstAt(n) && r < pCancel+pRecancel && len(cancelled) > 0:
			k := rng.Intn(len(cancelled))
			op.kind, op.of, op.spec = opRecancel, cancelled[k], ops[cancelled[k]].spec
			cancelled = slices.Delete(cancelled, k, k+1)
		case i != burstAt(n) && r < pCancel+pRecancel+pReuse && len(fresh) > 0:
			op.kind, op.of = opReuse, fresh[rng.Intn(len(fresh))]
			op.spec = ops[op.of].spec
		default:
			op.kind = opFresh
			for op.spec = freshSpec(rng); keys[op.spec.CellKey()]; op.spec = freshSpec(rng) {
			}
			keys[op.spec.CellKey()] = true
			fresh = append(fresh, i)
		}
		if op.kind == opCancel {
			cancelled = append(cancelled, i)
		}
		if (op.kind == opFresh || op.kind == opCancel) && rng.Float64() < pSubscribe {
			op.subscribe = true
			op.stall = rng.Float64() < pStall
		}
	}
	return ops
}

// killSpec is the kill op's program: a long-running one that w1 owns
// among w0 and w1, numbered from n, past every other op's and below the
// burst's holds, which start at 2n.
func killSpec(n int) service.JobSpec {
	for k := n; ; k++ {
		if spec := infSpec(int64(k)); ownerOf(spec, "w0", "w1") == "w1" {
			return spec
		}
	}
}

// freshSpec draws one job spec from the mix tables.
func freshSpec(rng *rand.Rand) service.JobSpec {
	spec := service.JobSpec{
		Bench:     pick(rng, mixBenches),
		Scale:     float64(100+rng.Intn(101)) / 1e4, // 0.01–0.02
		Interval:  mixIntervals[rng.Intn(len(mixIntervals))],
		Variation: pick(rng, mixVariations),
		Trigger:   pick(rng, mixTriggers),
	}
	overlap := rng.Float64() < pOverlap
	n := rng.Intn(3)
	if overlap && n == 0 {
		n = 1
	}
	for len(spec.Instrument) < n {
		if name := pick(rng, mixInstruments); !slices.Contains(spec.Instrument, name) {
			spec.Instrument = append(spec.Instrument, name)
		}
	}
	spec.Overlap = overlap
	spec.Verify = spec.Variation != "" && rng.Float64() < pVerify
	return spec
}

// pick draws one weighted alternative.
func pick(rng *rand.Rand, cs []weighted) string {
	total := 0
	for _, c := range cs {
		total += c.weight
	}
	n := rng.Intn(total)
	for _, c := range cs {
		if n < c.weight {
			return c.name
		}
		n -= c.weight
	}
	panic("unreachable")
}

// ---- driving one topology -------------------------------------------------

// topology is one way to serve the job surface: a single daemon, or a
// coordinator in front of workers.
type topology struct {
	name  string
	srv   *service.Server // the front door
	front *httptest.Server
	slots int    // jobs that run at once behind the front door
	queue int    // the front door's queue depth
	f     *fleet // nil for the daemon
}

// startTrafficDaemon serves the surface from one daemon with one worker
// and a queue of four, so a short burst fills it.
func startTrafficDaemon(t *testing.T) *topology {
	srv := service.New(service.Config{
		Workers:    1,
		QueueDepth: 4,
		Obs:        obs.NewState(obs.Options{Mode: obs.ModeSpans}),
	})
	return &topology{name: "daemon", srv: srv, front: httptest.NewServer(srv.Handler()), slots: 1, queue: 4}
}

// startTrafficFleet serves it from a coordinator with a queue of four
// over workers w0 and w1, two slots each.
func startTrafficFleet(t *testing.T) *topology {
	workers := []*testWorker{newTestWorker(t, "w0"), newTestWorker(t, "w1")}
	f := startCoordinator(t, workers, func(_ *Config, scfg *service.Config) { scfg.QueueDepth = 4 })
	f.waitUp(nil)
	return &topology{name: "fleet", srv: f.srv, front: f.front, slots: f.c.cfg.Slots * len(workers), queue: 4, f: f}
}

// shutdown drains the front door, then the workers.
func (top *topology) shutdown(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := top.srv.Shutdown(ctx); err != nil {
		t.Errorf("%s: front door shutdown: %v", top.name, err)
	}
	top.front.Close()
	if top.f != nil {
		for _, tw := range top.f.workers {
			tw.srv.Shutdown(ctx) //nolint:errcheck // every job is terminal; the dead worker is already down
			tw.hs.Close()
		}
	}
}

// opRecord is what a client saw of one op's job.
type opRecord struct {
	op       trafficOp
	id       string
	accepted string        // the status the 202 carried
	deleted  time.Time     // when a cancel op's DELETE went out
	final    tv            // the first terminal view
	stream   []byte        // the SSE stream, read to its end
	done     chan struct{} // closed when drive returns
}

// trafficRun drives a plan through one topology.
type trafficRun struct {
	*topology
	t       *testing.T
	hc      *http.Client
	plan    []trafficOp
	recs    []*opRecord // one per op, then the burst's holds
	rejects atomic.Int64
}

func (r *trafficRun) view(id string) (tv, error) { return getView(r.hc, r.front.URL, id) }

// cancel DELETEs a running op's job and notes when.
func (r *trafficRun) cancel(rec *opRecord) error {
	rec.deleted = time.Now()
	code, err := deleteJob(r.hc, r.front.URL, rec.id)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("DELETE %s: status %d", rec.id, code)
	}
	return err
}

// await polls job id until cond holds. It fails when the job turns
// terminal without cond, or at the deadline.
func (r *trafficRun) await(id string, deadline time.Time, what string, cond func(tv) bool) (tv, error) {
	delay := time.Millisecond
	for {
		v, err := r.view(id)
		switch {
		case err != nil:
			return v, err
		case cond(v):
			return v, nil
		case v.Status.Terminal():
			return v, fmt.Errorf("job %s ended %s (%s) before it was %s", id, v.Status, v.Error, what)
		case time.Now().After(deadline):
			return v, fmt.Errorf("job %s not %s in time (status %s)", id, what, v.Status)
		}
		time.Sleep(delay)
		delay = min(2*delay, 16*time.Millisecond)
	}
}

func terminal(v tv) bool { return v.Status.Terminal() }

func running(v tv) bool { return v.Status == service.StatusRunning }

// drive runs one op: it submits the spec, calling reject and retrying
// after every 429, opens the SSE stream, and follows the job to its
// terminal state, by which time the stream is read. A cancel op is
// deleted once seen running, after whileRunning when that is set.
// Every op ends within 30 s of its acceptance, and a cancel op within
// 10 s of its DELETE.
func (r *trafficRun) drive(rec *opRecord, reject func() error, whileRunning func(tv) error) (err error) {
	defer close(rec.done)
	op := rec.op
	if op.kind == opRecancel {
		<-r.recs[op.of].done
	}
	for {
		a, code, err := postJob(r.hc, r.front.URL, op.spec)
		if err != nil {
			return err
		}
		if code == http.StatusAccepted {
			rec.id, rec.accepted = a.ID, a.Status
			break
		}
		if code != http.StatusTooManyRequests {
			return fmt.Errorf("POST: status %d", code)
		}
		r.rejects.Add(1)
		if err := reject(); err != nil {
			return err
		}
	}
	limit := time.Now().Add(30 * time.Second)

	var stream io.ReadCloser
	var readErr error
	var read sync.WaitGroup
	if op.subscribe {
		resp, err := r.hc.Get(r.front.URL + "/v1/jobs/" + rec.id + "/events")
		if err != nil {
			return err
		}
		stream = resp.Body
		defer func() {
			stream.Close()
			read.Wait()
		}()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("events: status %d", resp.StatusCode)
		}
		if !op.stall {
			read.Add(1)
			go func() {
				defer read.Done()
				rec.stream, readErr = io.ReadAll(stream)
			}()
		}
	}

	if op.kind == opCancel || op.kind == opRecancel {
		v, err := r.await(rec.id, limit, "running", running)
		if err != nil {
			return err
		}
		if whileRunning != nil {
			if err := whileRunning(v); err != nil {
				return err
			}
		}
		if err := r.cancel(rec); err != nil {
			return err
		}
		limit = rec.deleted.Add(10 * time.Second)
	}
	if rec.final, err = r.await(rec.id, limit, "terminal", terminal); err != nil {
		return err
	}
	switch {
	case stream == nil:
	case op.stall:
		rec.stream, readErr = io.ReadAll(stream)
	default:
		read.Wait()
	}
	return readErr
}

// phase drives ops [from, to) from concurrent clients, each taking the
// next op when its last one is terminal, and returns when all are.
func (r *trafficRun) phase(from, to int) {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for range trafficClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < to; i = int(next.Add(1) - 1) {
				if err := r.drive(r.recs[i], r.waitRoom, nil); err != nil {
					r.t.Errorf("%s: op %d (%s): %v", r.name, i, r.plan[i].kind, err)
				}
			}
		}()
	}
	wg.Wait()
}

// waitRoom waits until the front door's queue has room.
func (r *trafficRun) waitRoom() error {
	return r.until("a free queue slot", func() bool {
		return r.srv.Registry().Gauge(service.MetricQueueDepth).Value() < int64(r.queue)
	})
}

// idle waits until nothing runs or waits behind the front door: the
// daemon has drained its queue, the fleet has no flight and no busy slot.
func (r *trafficRun) idle() error {
	return r.until("idle", func() bool {
		if r.f == nil {
			in := r.srv.Introspect()
			return in.Queued == 0 && in.Running == 0 &&
				r.srv.Registry().Gauge(service.MetricQueueDepth).Value() == 0
		}
		c := r.f.c
		c.mu.Lock()
		defer c.mu.Unlock()
		busy := len(c.flights) + len(c.queue)
		for _, w := range c.workers {
			busy += w.inflight
		}
		return busy == 0
	})
}

// until polls cond for up to 30 s.
func (r *trafficRun) until(what string, cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: never %s", r.name, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// burst runs op i, a fresh op, against a full front door: long-running
// holds take every slot, then fill the queue, so its first POST meets a
// 429. The retry waits until the holds are cancelled and the queue has
// room.
func (r *trafficRun) burst(i int) {
	t := r.t
	if err := r.idle(); err != nil {
		t.Fatal(err)
	}
	var holds []*opRecord
	hold := func() {
		rec := &opRecord{op: trafficOp{kind: opCancel, spec: infSpec(int64(2*len(r.plan) + len(holds))), of: -1}}
		a, code, err := postJob(r.hc, r.front.URL, rec.op.spec)
		if err != nil || code != http.StatusAccepted {
			t.Fatalf("%s: hold %d: status %d, %v", r.name, len(holds), code, err)
		}
		rec.id, rec.accepted = a.ID, a.Status
		holds = append(holds, rec)
	}
	for range r.slots {
		hold()
	}
	for _, h := range holds {
		if _, err := r.await(h.id, time.Now().Add(30*time.Second), "running", running); err != nil {
			t.Fatalf("%s: hold: %v", r.name, err)
		}
	}
	for range r.queue {
		hold()
	}
	freed := false
	free := func() error {
		if freed {
			return r.waitRoom()
		}
		freed = true
		for _, h := range holds {
			if err := r.cancel(h); err != nil {
				return err
			}
		}
		for _, h := range holds {
			v, err := r.await(h.id, h.deleted.Add(10*time.Second), "terminal", terminal)
			if err != nil {
				return err
			}
			h.final = v
		}
		return r.waitRoom()
	}
	before := r.rejects.Load()
	if err := r.drive(r.recs[i], free, nil); err != nil {
		t.Errorf("%s: burst op %d: %v", r.name, i, err)
	}
	if err := free(); err != nil {
		t.Errorf("%s: burst holds: %v", r.name, err)
	}
	if r.rejects.Load() == before {
		t.Errorf("%s: the burst's POST met no 429 with %d slots and a queue of %d held", r.name, r.slots, r.queue)
	}
	r.recs = append(r.recs, holds...)
}

// kill runs op i, a cancel op w1 owns, alone. In the fleet w1 dies
// while it runs the op, which then runs again on w0 before its DELETE.
func (r *trafficRun) kill(i int) {
	if err := r.idle(); err != nil {
		r.t.Fatal(err)
	}
	var whileRunning func(tv) error
	if r.f != nil {
		whileRunning = func(v tv) error {
			if v.Worker != "w1" {
				return fmt.Errorf("the kill op runs on %q, want its owner w1", v.Worker)
			}
			r.f.workers[1].die()
			_, err := r.await(v.ID, time.Now().Add(30*time.Second), "requeued on w0", func(v tv) bool {
				return v.Status == service.StatusRunning && v.Worker == "w0"
			})
			return err
		}
	}
	if err := r.drive(r.recs[i], r.waitRoom, whileRunning); err != nil {
		r.t.Errorf("%s: kill op %d: %v", r.name, i, err)
	}
}

// runTraffic drives the plan through one topology and checks every
// invariant. It returns each done op's compact result document.
func runTraffic(t *testing.T, start func(*testing.T) *topology, plan []trafficOp) []string {
	base := runtime.NumGoroutine()
	r := &trafficRun{topology: start(t), t: t, hc: &http.Client{Transport: &http.Transport{}}, plan: plan}
	for _, op := range plan {
		r.recs = append(r.recs, &opRecord{op: op, done: make(chan struct{})})
	}
	n := len(plan)
	r.phase(0, burstAt(n))
	r.burst(burstAt(n))
	if err := r.idle(); err != nil {
		t.Fatal(err)
	}
	r.phase(burstAt(n)+1, killAt(n))
	r.kill(killAt(n))
	r.phase(killAt(n)+1, n)
	if t.Failed() {
		r.shutdown(t)
		return nil
	}

	results := make([]string, n)
	for i, rec := range r.recs {
		if err := r.checkOp(rec); err != nil {
			t.Errorf("%s: op %d (%s, job %s): %v", r.name, i, rec.op.kind, rec.id, err)
		}
		if i < n && rec.final.Status == service.StatusDone {
			results[i] = compact(t, rec.final.Result)
		}
	}
	for i, op := range plan {
		if op.kind == opReuse && results[i] != results[op.of] {
			t.Errorf("%s: op %d reuses op %d's spec, but its result differs\n got: %s\nwant: %s",
				r.name, i, op.of, results[i], results[op.of])
		}
	}
	if r.f != nil {
		l := r.recs[killAt(n)].final.Ledger
		if !hasRow(l, obs.StageQueueWait, "requeue:w1") {
			t.Errorf("fleet: the kill op's ledger has no queue-wait row caused by requeue:w1: %+v", l)
		}
		if got := r.f.counter(MetricRequeues); got < 1 {
			t.Errorf("fleet: %s = %d, want at least 1", MetricRequeues, got)
		}
	}

	r.shutdown(t)
	r.checkCounters()
	r.hc.CloseIdleConnections()
	if got, stacks := goroutinesBackTo(base, time.Second); got > base {
		t.Errorf("%s: %d goroutines 1s after shutdown, %d before the run:\n%s", r.name, got, base, stacks)
	}
	return results
}

// checkOp holds one job to the per-op invariants.
func (r *trafficRun) checkOp(rec *opRecord) error {
	v := rec.final
	want := service.StatusDone
	if rec.op.kind == opCancel || rec.op.kind == opRecancel {
		want = service.StatusCancelled
	}
	if v.Status != want {
		return fmt.Errorf("status %s (%s), want %s", v.Status, v.Error, want)
	}
	if again, err := r.view(rec.id); err != nil || again.Status != v.Status {
		return fmt.Errorf("terminal status %s turned %s (%v)", v.Status, again.Status, err)
	}

	l := v.Ledger
	if l == nil {
		return errors.New("no ledger")
	}
	if sum := l.Sum(); sum != l.TotalNs {
		return fmt.Errorf("ledger rows sum to %d ns, total_ns is %d: %+v", sum, l.TotalNs, l.Rows)
	}
	_, queued := l.Row(obs.StageQueueWait)
	_, rode := l.Row(obs.StageMemoFlight)
	_, probed := l.Row(obs.StageCacheProbe)
	// The daemon queues every job. A fleet job that joins a flight in
	// progress, or that the coordinator's store answers at admission,
	// never waits in its queue.
	if !queued && (r.f == nil || !(rode || (probed && rec.accepted == string(service.StatusDone)))) {
		return fmt.Errorf("ledger has no queue-wait row: %+v", l.Rows)
	}
	if rec.op.kind == opRecancel && rode {
		return fmt.Errorf("a cancelled spec was served from the memo: %+v", l.Rows)
	}

	if rec.op.subscribe {
		s := string(rec.stream)
		end := fmt.Sprintf("event: done\ndata: {\"status\":%q}\n\n", v.Status)
		if !strings.HasSuffix(s, end) || strings.Contains(strings.TrimSuffix(s, end), "event: done") {
			return fmt.Errorf("SSE stream (stalled %v) does not end in one %q:\n%s", rec.op.stall, end, s)
		}
		if v.Status == service.StatusDone && !strings.Contains(s, "event: metrics\n") {
			return fmt.Errorf("SSE stream (stalled %v) of a run carries no metrics row:\n%s", rec.op.stall, s)
		}
	}
	return nil
}

// checkCounters holds the front door's counters, read after its drain,
// to what the clients saw: every job accepted once and terminal once,
// none failed, and every 429 counted on both sides.
func (r *trafficRun) checkCounters() {
	reg := r.srv.Registry()
	var done, cancelled uint64
	for _, rec := range r.recs {
		switch rec.final.Status {
		case service.StatusDone:
			done++
		case service.StatusCancelled:
			cancelled++
		}
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{service.MetricJobsAccepted, uint64(len(r.recs))},
		{service.MetricJobsCompleted, done},
		{service.MetricJobsCancelled, cancelled},
		{service.MetricJobsFailed, 0},
		{service.MetricJobsRejected, uint64(r.rejects.Load())},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			r.t.Errorf("%s: %s = %d, want %d", r.name, c.name, got, c.want)
		}
	}
}

// TestMixedTraffic drives one seeded op sequence through a single daemon
// and through a two-worker fleet, from concurrent clients, and holds
// exact invariants over every op. Every op is accepted, a 429 is only
// retried, and the front door counts the same 429s as its clients, more
// than none. Every job turns terminal exactly once and none fails:
// fresh and reused specs end done, and cancel ops end cancelled within
// 10 s of their DELETE; a cancelled spec submitted again runs again
// without the memo and is cancelled again. A reused spec's result is
// byte-identical to its first, and each done op's result is the same in
// both topologies. Every SSE stream, stalled or not, ends in its job's
// done event, with metrics rows for a run. Every ledger sums exactly to
// its total and shows where the job waited. In the fleet, w1 dies while
// it runs a cancel op, which requeues on w0. Once everything has shut
// down, no goroutine the run started survives. DESIGN.md §11.
func TestMixedTraffic(t *testing.T) {
	plan := trafficPlan(trafficSeed, trafficOps)
	checkPlanCovers(t, plan)
	var daemon []string
	t.Run("daemon", func(t *testing.T) { daemon = runTraffic(t, startTrafficDaemon, plan) })
	t.Run("fleet", func(t *testing.T) {
		fleet := runTraffic(t, startTrafficFleet, plan)
		if daemon == nil || fleet == nil {
			t.Skip("a topology failed; nothing to compare")
		}
		for i := range plan {
			if daemon[i] != fleet[i] {
				t.Errorf("op %d (%s): the result differs between the topologies\ndaemon: %s\n fleet: %s",
					i, plan[i].kind, daemon[i], fleet[i])
			}
		}
	})
}

// checkPlanCovers fails unless the plan holds every traffic class, so a
// change of seed or mix cannot drop one unnoticed.
func checkPlanCovers(t *testing.T, plan []trafficOp) {
	t.Helper()
	has := map[string]bool{}
	for _, op := range plan {
		has[op.kind.String()] = true
		has["verify"] = has["verify"] || op.spec.Verify
		has["overlap"] = has["overlap"] || op.spec.Overlap
		has["subscriber"] = has["subscriber"] || op.subscribe && !op.stall
		has["stalled subscriber"] = has["stalled subscriber"] || op.stall
	}
	for _, class := range []string{"fresh", "reuse", "cancel", "recancel", "verify", "overlap", "subscriber", "stalled subscriber"} {
		if !has[class] {
			t.Errorf("the plan has no %s op", class)
		}
	}
	if op := plan[burstAt(len(plan))]; op.kind != opFresh {
		t.Errorf("the burst op is a %s op, want fresh", op.kind)
	}
	if op := plan[killAt(len(plan))]; op.kind != opCancel || ownerOf(op.spec, "w0", "w1") != "w1" {
		t.Errorf("the kill op is a %s op owned by %s, want a cancel op owned by w1", op.kind, ownerOf(op.spec, "w0", "w1"))
	}
}
