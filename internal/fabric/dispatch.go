package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/service"
)

// claimLocked fills one free slot of w with the oldest queued cell w
// may run, and returns it with its rendezvous owner. w may run a cell it
// has not tried, except while the cell's owner is another worker that
// could take it now: up, not yet tried on the cell, and with a free
// slot. A busy, down or draining owner never holds a cell back, and
// nothing waits while a slot idles. Caller holds c.mu; the returned
// flight is marked running on w.
func (c *Coordinator) claimLocked(w *worker) (*flight, *worker) {
	if !w.up || w.draining {
		return nil, nil
	}
	for i, fl := range c.queue {
		if fl.tried[w.name] {
			continue
		}
		owner := c.ownerLocked(fl)
		if owner != w && owner.up && !fl.tried[owner.name] && owner.inflight < c.cfg.Slots {
			continue
		}
		c.queue = slices.Delete(c.queue, i, i+1)
		c.reg.Gauge(service.MetricQueueDepth).Add(-1)
		c.srv.RecordDrain()
		c.setRunningLocked(fl, w)
		fl.tried[w.name] = true
		w.inflight++
		w.mInflight.Add(1)
		w.mDispatched.Inc()
		if len(c.queue) > 0 {
			// Filling this slot may release a cell a peer skipped.
			c.cond.Broadcast()
		}
		return fl, owner
	}
	return nil, nil
}

// dispatchLoop is one worker slot: it claims flights for w and runs each
// through the remote dispatch protocol until the coordinator closes or
// the worker is removed.
func (c *Coordinator) dispatchLoop(w *worker) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		var fl *flight
		var owner *worker
		for {
			if c.closed || w.gone {
				c.mu.Unlock()
				return
			}
			if fl, owner = c.claimLocked(w); fl != nil {
				break
			}
			c.cond.Wait()
		}
		if fl.cancel {
			c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
			c.mu.Unlock()
			continue
		}
		if owner != w {
			c.reg.Counter(MetricSteals).Inc()
			c.beginStageLocked(fl, obs.StageSteal, owner.name+"→"+w.name)
		}
		c.mu.Unlock()
		c.dispatch(w, fl, owner)
	}
}

// beginStageLocked advances the trace chain of every rider. Caller
// holds c.mu.
func (c *Coordinator) beginStageLocked(fl *flight, s obs.Stage, cause string) {
	for _, j := range fl.attached {
		j.Trace().Begin(s, cause)
	}
}

// markStartedLocked stamps the riders running from the flight's first
// worker accept. Caller holds c.mu.
func (c *Coordinator) markStartedLocked(fl *flight) {
	if fl.started.IsZero() {
		fl.started = c.now()
	}
	for _, j := range fl.attached {
		j.Start(fl.started)
	}
}

// dispatch runs one flight on one worker: an optional remote CAS probe,
// the POST, the worker's event stream, the terminal fetch, and CAS
// replication. Any worker-side failure requeues the cell elsewhere (at
// most once per worker); job-side failures resolve the flight.
func (c *Coordinator) dispatch(w *worker, fl *flight, owner *worker) {
	cause := w.name
	c.mu.Lock()
	if len(fl.tried) > 1 {
		// Not the first attempt: this dispatch is a requeue continuation.
		cause = "requeue:" + w.name
	}
	addr := fl.addr
	if addr == "" && c.fleetID != "" {
		addr = experiment.CASAddr(c.fleetID, fl.key)
		fl.addr = addr
	}
	// Running away from a live owner: the owner may hold the result from
	// an earlier run, so probe its CAS before paying for a recompute.
	probe := addr != "" && !fl.spec.Overlap && owner != w && owner.up
	c.mu.Unlock()
	if probe {
		if data := c.remoteProbe(fl, owner, addr); data != nil {
			c.resolveFromCAS(fl, data, MetricCASRemoteHit)
			return
		}
	}
	c.mu.Lock()
	c.beginStageLocked(fl, obs.StageDispatch, cause)
	c.mu.Unlock()

	body, err := json.Marshal(fl.spec)
	if err != nil {
		c.failFlight(fl, fmt.Sprintf("marshal spec: %v", err))
		return
	}
	resp, err := c.call(w.ctx, w, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		c.workerFailed(w, fl, fmt.Sprintf("submit to %s: %v", w.name, err))
		return
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		// fall through
	case http.StatusTooManyRequests:
		// Worker pushback propagates. The cell goes back to the head of
		// the fleet queue at once, and the worker stays eligible for it (a
		// 429 is congestion, not failure). The refusing slot stays busy
		// until its Retry-After (bounded) ends, so the claim rule lets an
		// idle peer take the cell instead of leaving it to the owner.
		resp.Body.Close()
		ra := 1
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
			ra = v
		}
		if ra > 5 {
			ra = 5
		}
		c.mu.Lock()
		delete(fl.tried, w.name)
		held := fl.running == w // else a resolve already freed the slot
		if held {
			c.setRunningLocked(fl, nil)
		}
		if !fl.done {
			if fl.cancel {
				c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
			} else {
				c.beginStageLocked(fl, obs.StageQueueWait, "429:"+w.name)
				c.enqueueLocked(fl, true)
			}
		}
		c.mu.Unlock()
		select {
		case <-time.After(time.Duration(ra) * time.Second):
		case <-w.ctx.Done():
		}
		if held {
			c.mu.Lock()
			w.inflight--
			w.mInflight.Add(-1)
			c.retireIfDrainedLocked(w)
			c.mu.Unlock()
		}
		return
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		if resp.StatusCode == http.StatusBadRequest {
			// The spec itself is bad; no other worker will accept it.
			c.failFlight(fl, fmt.Sprintf("worker %s rejected job: %s", w.name, msg))
			return
		}
		c.workerFailed(w, fl, fmt.Sprintf("worker %s: status %d", w.name, resp.StatusCode))
		return
	}
	var acc struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || acc.ID == "" {
		c.workerFailed(w, fl, fmt.Sprintf("worker %s: bad accept body", w.name))
		return
	}
	c.mu.Lock()
	fl.remoteID = acc.ID
	c.markStartedLocked(fl)
	if fl.cancel {
		c.mu.Unlock()
		c.remoteCancel(w, acc.ID)
		// The stream below observes the cancellation and resolves.
	} else {
		c.mu.Unlock()
	}

	ok := c.streamEvents(w, fl, acc.ID)
	if !ok {
		// The stream broke before the job was terminal; one direct view
		// fetch decides between a finished job and a lost worker.
		if view, err := c.fetchView(w, acc.ID); err == nil && view.Status.Terminal() {
			c.settle(w, fl, view)
			return
		}
		c.workerFailed(w, fl, fmt.Sprintf("worker %s lost mid-job", w.name))
		return
	}
	view, err := c.fetchView(w, acc.ID)
	if err != nil {
		c.workerFailed(w, fl, fmt.Sprintf("worker %s lost at result fetch: %v", w.name, err))
		return
	}
	c.settle(w, fl, view)
}

// remoteView is the subset of a worker job document the coordinator
// consumes; Result passes through untouched so a fleet answer is
// byte-identical with the worker's own.
type remoteView struct {
	Status service.JobStatus `json:"status"`
	Error  string            `json:"error"`
	Result json.RawMessage   `json:"result"`
}

// fetchView reads a worker job's terminal document.
func (c *Coordinator) fetchView(w *worker, remoteID string) (remoteView, error) {
	var v remoteView
	resp, err := c.call(w.ctx, w, http.MethodGet, "/v1/jobs/"+remoteID, nil)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("status %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// settle applies a worker job's terminal document to the flight.
func (c *Coordinator) settle(w *worker, fl *flight, view remoteView) {
	switch view.Status {
	case service.StatusDone:
		c.replicate(w, fl)
		var result any // the worker's bytes verbatim; untyped nil when it sent none
		if len(view.Result) > 0 {
			result = view.Result
		}
		c.mu.Lock()
		c.beginStageLocked(fl, obs.StageExport, "")
		c.resolveLocked(fl, service.StatusDone, "", result)
		c.mu.Unlock()
	case service.StatusCancelled:
		c.mu.Lock()
		if fl.cancel {
			c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		// Cancelled but not by us: the worker is draining away. Requeue.
		c.workerFailed(w, fl, fmt.Sprintf("worker %s cancelled the job (draining)", w.name))
	default:
		c.mu.Lock()
		c.resolveLocked(fl, service.StatusFailed, view.Error, nil)
		c.mu.Unlock()
	}
}

// replicate pulls the finished cell's CAS entry from the worker into
// the coordinator's replica, verifying integrity; a corrupt payload is
// rejected and refetched once. Replication is best-effort — the result
// already arrived via the job document.
func (c *Coordinator) replicate(w *worker, fl *flight) {
	c.mu.Lock()
	cas := c.cas
	addr := fl.addr
	overlap := fl.spec.Overlap
	c.mu.Unlock()
	if cas == nil || addr == "" || overlap {
		return
	}
	if _, have := cas.GetAddr(addr); have {
		return
	}
	for attempt := 0; attempt < 2; attempt++ {
		data, err := c.casGet(w, addr)
		if err != nil || data == nil {
			return // worker has no entry (cache disabled) or is gone
		}
		if err := cas.PutAddr(addr, data); err != nil {
			c.reg.Counter(MetricCASRejected).Inc()
			if c.log != nil {
				c.log.Warn("cas payload rejected", "addr", addr, "worker", w.name, "attempt", attempt+1, "err", err)
			}
			continue // refetch once
		}
		return
	}
}

// casGet fetches one raw CAS entry from a worker; nil with no error
// means the worker has no such entry.
func (c *Coordinator) casGet(w *worker, addr string) ([]byte, error) {
	resp, err := c.call(w.ctx, w, http.MethodGet, "/v1/cas/"+addr, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cas get %s: status %d", addr, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, c.maxBody))
}

// remoteProbe asks a peer's CAS for the flight's result, verifying the
// payload before trusting it. A corrupt payload is rejected, counted
// and refetched once (satisfying the reject + refetch contract); nil
// means "dispatch normally".
func (c *Coordinator) remoteProbe(fl *flight, peer *worker, addr string) []byte {
	c.mu.Lock()
	c.beginStageLocked(fl, obs.StageRemoteProbe, peer.name)
	id := c.fleetID
	c.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		data, err := c.casGet(peer, addr)
		if err != nil || data == nil {
			c.reg.Counter(MetricCASMiss).Inc()
			return nil
		}
		if err := experiment.VerifyCAS(id, addr, data); err != nil {
			c.reg.Counter(MetricCASRejected).Inc()
			if c.log != nil {
				c.log.Warn("cas probe rejected", "addr", addr, "worker", peer.name, "attempt", attempt+1, "err", err)
			}
			continue
		}
		if c.cas != nil {
			c.cas.PutAddr(addr, data) //nolint:errcheck // replica is best-effort
		}
		return data
	}
	return nil
}

// resolveFromCAS turns a verified CAS payload into the flight's result:
// the same BuildResult path a worker runs, so the bytes match a local
// run exactly.
func (c *Coordinator) resolveFromCAS(fl *flight, data []byte, hitMetric string) {
	cell, key, err := experiment.DecodeCAS(data)
	if err != nil || key != fl.key {
		c.failFlight(fl, fmt.Sprintf("cas decode: %v", err))
		return
	}
	c.reg.Counter(hitMetric).Inc()
	c.mu.Lock()
	c.markStartedLocked(fl)
	c.beginStageLocked(fl, obs.StageExport, "")
	c.resolveLocked(fl, service.StatusDone, "", service.BuildResult(fl.spec, cell, nil))
	c.mu.Unlock()
}

// failFlight resolves a flight failed without blaming the worker.
func (c *Coordinator) failFlight(fl *flight, msg string) {
	c.mu.Lock()
	c.resolveLocked(fl, service.StatusFailed, msg, nil)
	c.mu.Unlock()
}

// workerFailed handles a hard worker-side failure: the worker is marked
// down pending its next health probe, and the cell requeues on the next
// eligible worker (it has already recorded this worker in tried, so the
// retry is at most once per worker). The requeue is visible in the
// ledger: the queue-wait stage reopens with a requeue cause.
func (c *Coordinator) workerFailed(w *worker, fl *flight, msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl.running == w {
		c.setRunningLocked(fl, nil)
		w.inflight--
		w.mInflight.Add(-1)
	}
	fl.remoteID = ""
	if c.closed {
		// Stop aborted the worker traffic after every rider resolved:
		// nobody waits on this flight and the worker is not to blame.
		c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
		return
	}
	if c.log != nil {
		c.log.Warn("worker failed", "worker", w.name, "err", msg)
	}
	w.mFailures.Inc()
	if fl.done {
		// A racing resolution (forced shutdown, cancel) already settled
		// the flight; nothing to requeue.
		c.retireIfDrainedLocked(w)
		return
	}
	if w.up {
		w.up = false
		w.mUp.Set(0)
		c.reg.Counter(MetricWorkerLost).Inc()
	}
	c.retireIfDrainedLocked(w)
	if fl.cancel {
		c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
		return
	}
	c.reg.Counter(MetricRequeues).Inc()
	c.beginStageLocked(fl, obs.StageQueueWait, "requeue:"+w.name)
	c.enqueueLocked(fl, false)
}

// remoteCancel issues a DELETE for a worker-side job. It is
// best-effort and bounded: a worker that never answers costs at most
// workerRPCTimeout, and Stop aborts it at once.
func (c *Coordinator) remoteCancel(w *worker, remoteID string) {
	ctx, cancel := context.WithTimeout(w.ctx, workerRPCTimeout)
	defer cancel()
	if resp, err := c.call(ctx, w, http.MethodDelete, "/v1/jobs/"+remoteID, nil); err == nil {
		resp.Body.Close()
	}
}

// call sends one request to worker w under ctx — w.ctx or a context
// derived from it, so removing the worker or stopping the coordinator
// aborts it. A body is sent as JSON.
func (c *Coordinator) call(ctx context.Context, w *worker, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.client.Do(req)
}

// streamEvents consumes the worker's SSE stream for a running job,
// relaying its columns/metrics blocks to the riders' event logs. It returns
// true when the stream reached the worker's done event, false when the
// connection broke first.
func (c *Coordinator) streamEvents(w *worker, fl *flight, remoteID string) bool {
	// The worker's context aborts the stream promptly when the worker is
	// removed or the coordinator stops.
	resp, err := c.call(w.ctx, w, http.MethodGet, "/v1/jobs/"+remoteID+"/events", nil)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event string
	var block bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "done" {
				return true
			}
			// The worker's ledger is its own attribution; the coordinator
			// streams its own ledger at done. Pass everything else through.
			if event != "ledger" && block.Len() > 0 {
				blk := append([]byte(nil), block.Bytes()...)
				blk = append(blk, '\n')
				c.mu.Lock()
				if !fl.done {
					c.relayLocked(fl, blk)
				}
				c.mu.Unlock()
			}
			event = ""
			block.Reset()
		default:
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				event = v
			}
			block.WriteString(line)
			block.WriteByte('\n')
		}
	}
	return false
}
