package fabric

import (
	"slices"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/service"
)

// flightKey identifies one single-flight: the cell key plus the overlap
// flag. Overlap is not part of the cell key — it adds the exhaustive
// reference cell instead of changing this one — but it changes the
// job's result, so an overlap job never rides a plain one, nor the
// reverse.
type flightKey struct {
	cell    string
	overlap bool
}

// flight is one live measurement cell: the cluster-wide single-flight
// unit. Every submission with the same flight key attaches to the same
// flight as a rider; the flight is dispatched once and its resolution
// fans out to every rider. All flight state is guarded by the
// coordinator's mutex — dispatchers copy what they need before doing
// network I/O.
type flight struct {
	key  string // the cell key: shards the flight and addresses its CAS entry
	addr string // CAS address under the fleet ID ("" before the ID is known)
	spec service.JobSpec

	attached []*service.Job  // live riders (the first opened the flight)
	tried    map[string]bool // workers that already failed this cell
	running  *worker         // worker executing it (nil while queued)
	remoteID string          // worker-side job ID while running
	started  time.Time       // when the worker accepted it (zero before)
	done     bool
	cancel   bool // every rider left; abort at the next step

	// events are the worker's SSE blocks (columns/metrics) relayed so
	// far: every rider's event log gets each one, and a rider attaching
	// late gets the backlog.
	events [][]byte
}

// Admit is the fleet's side of POST /v1/jobs (service.Executor): a
// duplicate of an in-flight cell piggybacks on it, a cell already in
// the coordinator's CAS replica resolves at once, and everything else
// joins the fleet queue — or, with QueueDepth cells already queued, is
// refused with the server's 429.
func (c *Coordinator) Admit(j *service.Job) bool {
	spec := j.Spec()
	fk := flightKey{cell: spec.CellKey(), overlap: spec.Overlap}
	tr := j.Trace()
	c.mu.Lock()
	defer c.mu.Unlock()

	// Cluster-wide single-flight: an identical in-flight cell absorbs
	// this submission; the new job rides the owner with a cause link.
	if fl, ok := c.flights[fk]; ok && !fl.cancel {
		tr.Begin(obs.StageMemoFlight, fl.attached[0].ID())
		c.attachLocked(fl, j)
		c.reg.Counter(MetricMemoPiggy).Inc()
		return true
	}

	// CAS fast path: the coordinator's replica may already hold the
	// result (a resubmission, or another node computed it earlier).
	tr.Begin(obs.StageCacheProbe, "")
	if c.cas != nil && !spec.Overlap {
		if data, ok := c.cas.GetAddr(experiment.CASAddr(c.fleetID, fk.cell)); ok {
			if cell, cellKey, err := experiment.DecodeCAS(data); err == nil && cellKey == fk.cell {
				c.reg.Counter(MetricCASLocalHit).Inc()
				tr.Begin(obs.StageExport, "")
				j.Finish(service.StatusDone, "", service.BuildResult(spec, cell, nil))
				return true
			}
		}
		c.reg.Counter(MetricCASMiss).Inc()
	}

	// Bounded queue: propagated backpressure, proportional Retry-After.
	if len(c.queue) >= c.queueDepth {
		return false
	}
	tr.Begin(obs.StageQueueWait, "")
	fl := &flight{
		key:   fk.cell,
		spec:  spec,
		tried: make(map[string]bool),
	}
	if c.fleetID != "" {
		fl.addr = experiment.CASAddr(c.fleetID, fl.key)
	}
	c.flights[fk] = fl
	c.attachLocked(fl, j)
	c.enqueueLocked(fl, false)
	return true
}

// attachLocked makes j a rider of fl: it catches up with the flight's
// state and event backlog, and a DELETE, timeout or forced drain on j
// detaches it. Caller holds c.mu.
func (c *Coordinator) attachLocked(fl *flight, j *service.Job) {
	fl.attached = append(fl.attached, j)
	if fl.running != nil {
		j.SetWorker(fl.running.name)
	}
	if !fl.started.IsZero() {
		j.Start(fl.started)
	}
	j.AppendEvents(fl.events...)
	j.OnCancel(func() { c.detach(fl, j) })
}

// detach resolves a rider whose context ended — DELETE, timeout_ms or
// a forced drain — and takes it off its flight. The flight itself is
// only aborted when its last rider leaves: dequeued if undispatched, or
// cancelled on its worker. The rider resolves here, never by waiting on
// a worker.
func (c *Coordinator) detach(fl *flight, j *service.Job) {
	j.Abort()
	c.mu.Lock()
	if fl.done || !fl.detachLocked(j) {
		c.mu.Unlock()
		return
	}
	fl.cancel = true
	var w *worker
	var remoteID string
	if c.dequeueLocked(fl) {
		// Still queued: nothing ran anywhere; retire the flight now.
		c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
	} else if fl.running != nil && fl.remoteID != "" && !c.closed {
		// Propagate to the worker; its event stream resolves the flight.
		w, remoteID = fl.running, fl.remoteID
		c.cancels.Add(1)
	}
	c.mu.Unlock()
	if w != nil {
		defer c.cancels.Done()
		c.remoteCancel(w, remoteID)
	}
}

// detachLocked removes a rider from the flight; it reports true when
// the flight has no rider left. Caller holds c.mu.
func (fl *flight) detachLocked(j *service.Job) bool {
	live := fl.attached[:0]
	for _, a := range fl.attached {
		if a != j {
			live = append(live, a)
		}
	}
	fl.attached = live
	return len(live) == 0
}

// setRunningLocked records the worker executing fl (nil: none) and
// names it in every rider's job document. Caller holds c.mu.
func (c *Coordinator) setRunningLocked(fl *flight, w *worker) {
	fl.running = w
	name := ""
	if w != nil {
		name = w.name
	}
	for _, j := range fl.attached {
		j.SetWorker(name)
	}
}

// enqueueLocked puts a flight on the fleet queue — at the tail, or at
// the head for a cell a worker pushed back with 429, so it keeps its
// place — or fails it when no worker remains eligible. Caller holds c.mu.
func (c *Coordinator) enqueueLocked(fl *flight, head bool) {
	if !c.eligibleLocked(fl) {
		c.resolveLocked(fl, service.StatusFailed, errNoWorker, nil)
		return
	}
	if head {
		c.queue = slices.Insert(c.queue, 0, fl)
	} else {
		c.queue = append(c.queue, fl)
	}
	c.reg.Gauge(service.MetricQueueDepth).Add(1)
	c.cond.Broadcast()
}

// dequeueLocked takes a still-queued flight off the fleet queue (a
// cancel, or a cell a reload stranded); it reports false when the flight
// is not queued. Caller holds c.mu.
func (c *Coordinator) dequeueLocked(fl *flight) bool {
	i := slices.Index(c.queue, fl)
	if i < 0 {
		return false
	}
	c.queue = slices.Delete(c.queue, i, i+1)
	c.reg.Gauge(service.MetricQueueDepth).Add(-1)
	return true
}

// resolveLocked fans a flight's terminal outcome out to every rider and
// retires the flight. A failed or cancelled outcome leaves no trace in
// the CAS — failures are never memoized; the next submission of the
// cell recomputes it. result is the riders' result document (nil for
// none). Caller holds c.mu.
func (c *Coordinator) resolveLocked(fl *flight, st service.JobStatus, errMsg string, result any) {
	if fl.done {
		return
	}
	fl.done = true
	if w := fl.running; w != nil {
		w.inflight--
		w.mInflight.Add(-1)
		c.setRunningLocked(fl, nil)
		c.retireIfDrainedLocked(w)
	}
	// A cancelled flight may already be superseded by a new one.
	if fk := (flightKey{fl.key, fl.spec.Overlap}); c.flights[fk] == fl {
		delete(c.flights, fk)
	}
	for _, j := range fl.attached {
		// A rider whose cancel raced the completion keeps its cancelled
		// state; the flight outcome applies to everyone still live.
		j.Finish(st, errMsg, result)
	}
	c.cond.Broadcast()
}

// retireIfDrainedLocked completes a draining worker's removal once its
// last inflight cell resolves. Caller holds c.mu.
func (c *Coordinator) retireIfDrainedLocked(w *worker) {
	if w.draining && !w.gone && w.inflight == 0 {
		c.removeWorkerLocked(w)
	}
}

// relayLocked appends one worker SSE block to the flight's backlog and
// to every rider's event log. Caller holds c.mu.
func (c *Coordinator) relayLocked(fl *flight, block []byte) {
	fl.events = append(fl.events, block)
	for _, j := range fl.attached {
		j.AppendEvents(block)
	}
}
