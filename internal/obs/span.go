package obs

import (
	"fmt"
	"sync"
	"time"

	"instrsample/internal/telemetry"
)

// Span is one completed lifecycle stage of one job. Times are absolute
// wall-clock nanoseconds (UnixNano), so spans from different jobs — and
// the VM events aligned per run — share one timeline.
type Span struct {
	// Job is the job ID the span belongs to ("" for a request that was
	// never accepted).
	Job string `json:"job"`
	// Stage is the lifecycle stage.
	Stage Stage `json:"stage"`
	// StartNs and EndNs bound the span (UnixNano; EndNs == StartNs for
	// instant spans like StageTerminal).
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Cause carries the stage's cause link: for StageMemoFlight the ID
	// of the job owning the deduplicated flight, for StageTerminal the
	// terminal status.
	Cause string `json:"cause,omitempty"`
}

// Stage enumerates the job lifecycle stages in their canonical order.
// Not every job passes through every stage — a cache hit skips compile
// and vm-run, a memo dedup replaces them all with memo-flight, a job
// cancelled in the queue ends after queue-wait — but the stages a job
// does pass through appear in this order, contiguously.
type Stage uint8

const (
	// StageAccept covers request decoding: handler entry to spec parsed.
	StageAccept Stage = iota
	// StageValidate covers spec defaulting and validation.
	StageValidate
	// StageQueueWait covers enqueue to worker pickup (or to terminal,
	// for jobs cancelled while still queued).
	StageQueueWait
	// StageMemoFlight covers waiting on another job's in-flight
	// identical cell; the span's Cause is the owning job's ID.
	StageMemoFlight
	// StageCacheProbe covers the on-disk result cache lookup (and load,
	// when it hits).
	StageCacheProbe
	// StageSteal covers the instant a worker claims a queued cell its
	// rendezvous owner could not take (fabric only); its Cause names the
	// move ("owner→worker").
	StageSteal
	// StageRemoteProbe covers a fleet coordinator probing the owner's CAS
	// for an already-computed result before dispatching (fabric only).
	StageRemoteProbe
	// StageDispatch covers handing the cell to a fleet worker and waiting
	// for the remote run; its Cause names the worker (or "requeue:<w>"
	// when a prior worker was lost mid-job).
	StageDispatch
	// StageCompile covers program construction and compilation.
	StageCompile
	// StageVMRun covers VM execution.
	StageVMRun
	// StageExport covers result assembly and terminal-state resolution.
	StageExport
	// StageTerminal is the instant the job reached a terminal state; its
	// Cause is the terminal status. Zero duration by definition.
	StageTerminal

	// NumStages is the number of stages: one past the last.
	NumStages
)

var stageNames = [NumStages]string{
	StageAccept:      "accept",
	StageValidate:    "validate",
	StageQueueWait:   "queue-wait",
	StageMemoFlight:  "memo-flight",
	StageCacheProbe:  "cache-probe",
	StageSteal:       "steal",
	StageRemoteProbe: "remote-cache-probe",
	StageDispatch:    "dispatch",
	StageCompile:     "compile",
	StageVMRun:       "vm-run",
	StageExport:      "export",
	StageTerminal:    "terminal",
}

// String returns the stage's wire name (used in ledger JSON, Chrome
// trace events and Prometheus metric names).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// MarshalText renders the stage name in JSON.
func (s Stage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a stage name, so a client can decode a job's
// ledger JSON.
func (s *Stage) UnmarshalText(b []byte) error {
	for i, n := range stageNames {
		if n == string(b) {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("unknown stage %q", b)
}

// LedgerRow is one stage's exact wall-clock share of a job.
type LedgerRow struct {
	// Stage names the lifecycle stage.
	Stage Stage `json:"stage"`
	// Ns is the stage's duration in nanoseconds.
	Ns int64 `json:"ns"`
	// Cause is the stage's cause link (memo-flight: owning job ID).
	Cause string `json:"cause,omitempty"`
}

// Ledger is a job's wall-clock attribution: where every nanosecond of
// its end-to-end latency went. The invariant — enforced by test, held
// by construction — is that the rows' durations sum to TotalNs exactly:
// stages are contiguous (each opens the instant the previous closes)
// and non-overlapping, so the sum telescopes to last-end minus
// first-start.
type Ledger struct {
	// Rows are the stages in execution order.
	Rows []LedgerRow `json:"rows"`
	// TotalNs is the end-to-end latency (accept start to terminal).
	TotalNs int64 `json:"total_ns"`
	// Status is the terminal status ("" while the job is live).
	Status string `json:"status,omitempty"`
}

// Sum returns the rows' duration total; the ledger invariant is
// Sum() == TotalNs for a finished job.
func (l *Ledger) Sum() int64 {
	var n int64
	for _, r := range l.Rows {
		n += r.Ns
	}
	return n
}

// Row returns the first row for the stage and whether one exists.
func (l *Ledger) Row(s Stage) (LedgerRow, bool) {
	for _, r := range l.Rows {
		if r.Stage == s {
			return r, true
		}
	}
	return LedgerRow{}, false
}

// JobTrace is one job's span chain. Exactly one stage is open at any
// moment; Begin closes it by opening the next, so the chain cannot have
// gaps or overlaps. Begin/Finish are called from the HTTP handler, the
// worker goroutine and the engine's hook path — never concurrently for
// a correctly sequenced job, but the mutex keeps a misuse (or a cancel
// racing a finish) memory-safe. All methods are nil-receiver-safe so
// the off mode costs callers one branch.
type JobTrace struct {
	now func() time.Time

	mu       sync.Mutex
	job      string
	start    time.Time
	cur      Stage
	curCause string
	curStart time.Time
	// curStartNs is the chain's wall-clock cursor: anchored once at the
	// chain's first instant and advanced only by measured (monotonic)
	// stage durations. Spans take their endpoints from the cursor, never
	// from fresh UnixNano readings, so consecutive spans meet exactly —
	// wall/monotonic drift between readings cannot open ns-level gaps.
	curStartNs int64
	done       bool
	rows       []LedgerRow
	spans      []Span
	status     string

	// vm is the ModeFull attachment (nil without one): the run's
	// cycle-domain events as a compact value snapshot, timestamps
	// already aligned to the chain's time base. AttachVM snapshots
	// eagerly and drops the recorder so nothing here pins the run's
	// compiled program: ring events hold *ir.Method pointers, and
	// retaining them for the job's lifetime would keep every traced
	// job's whole IR live — pure GC ballast at service rates. The Chrome
	// form (per-event args maps) is built only when a trace export
	// actually asks for it.
	vm *VMRun
}

// VMRun is a traced VM run attached to a job's chain (AttachVM).
type VMRun struct {
	// Events are the run's retained events, timestamps aligned to the
	// chain's time base.
	Events []telemetry.NamedEvent
	// Threads is the number of VM threads that recorded events.
	Threads int
	// Total and Drops count every event recorded and those the
	// recorder's rings overwrote.
	Total, Drops uint64
	// StartNs and EndNs bound the run's wall-clock window (UnixNano);
	// Cycles is its cycle count. Together they align cycles to wall time.
	StartNs, EndNs int64
	Cycles         uint64
}

// SetJob names the chain once the job ID is allocated. Spans recorded
// before (the accept span closes before the ID exists) carry the name
// from then on; a rejected request's chain is never named and is simply
// abandoned.
func (t *JobTrace) SetJob(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.job = id
	t.mu.Unlock()
}

// Begin closes the open stage and opens the next one at the same
// instant. cause carries the stage's cause link (memo-flight: owning
// job ID) and may be empty. Begin after Finish is ignored — a memo
// waiter unblocking after a cancel already resolved the job must not
// reopen the chain.
func (t *JobTrace) Begin(s Stage, cause string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	now := t.now()
	t.closeCurLocked(now)
	t.cur = s
	t.curCause = cause
	t.curStart = now
}

// closeCurLocked closes the open stage at now, appending its ledger row
// and its span.
func (t *JobTrace) closeCurLocked(now time.Time) {
	ns := now.Sub(t.curStart).Nanoseconds()
	if ns < 0 {
		ns = 0 // a non-monotonic test clock must not break the sum invariant
	}
	t.rows = append(t.rows, LedgerRow{Stage: t.cur, Ns: ns, Cause: t.curCause})
	t.spans = append(t.spans, Span{
		Stage:   t.cur,
		StartNs: t.curStartNs,
		EndNs:   t.curStartNs + ns,
		Cause:   t.curCause,
	})
	t.curStartNs += ns
}

// Finish closes the chain: the open stage ends now, a zero-duration
// terminal span carrying the status is recorded, and later Begin/Finish
// calls are ignored (a cancel racing a natural completion resolves to
// whichever lands first, mirroring job.finish).
func (t *JobTrace) Finish(status string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	now := t.now()
	t.closeCurLocked(now)
	t.done = true
	t.status = status
	t.spans = append(t.spans, Span{
		Stage:   StageTerminal,
		StartNs: t.curStartNs,
		EndNs:   t.curStartNs,
		Cause:   status,
	})
}

// Done reports whether Finish has run.
func (t *JobTrace) Done() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Ledger snapshots the attribution ledger. For a finished chain the
// rows are final and Sum() == TotalNs exactly; for a live one the open
// stage is reported up to now, so totals still reconcile.
func (t *JobTrace) Ledger() *Ledger {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &Ledger{Rows: append([]LedgerRow(nil), t.rows...), Status: t.status}
	var end time.Time
	if t.done {
		// TotalNs must equal the row sum exactly; reconstruct the end
		// from the rows rather than re-reading the clock.
		var ns int64
		for _, r := range l.Rows {
			ns += r.Ns
		}
		l.TotalNs = ns
		return l
	}
	end = t.now()
	open := end.Sub(t.curStart).Nanoseconds()
	if open < 0 {
		open = 0
	}
	l.Rows = append(l.Rows, LedgerRow{Stage: t.cur, Ns: open, Cause: t.curCause})
	for _, r := range l.Rows {
		l.TotalNs += r.Ns
	}
	return l
}

// Spans returns the chain's recorded spans (closed stages plus, once
// finished, the terminal instant), in order. Used by the per-job Chrome
// export.
func (t *JobTrace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		out[i].Job = t.job
	}
	return out
}

// Job returns the chain's job ID.
func (t *JobTrace) Job() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.job
}

// WantVM reports whether the chain wants a per-run VM trace attached —
// true only for chains opened at ModeFull. The decision is latched at
// StartJobFull time by the service (which checks the mode once per
// run), not stored here; the service calls AttachVM only at full.
//
// AttachVM hands the chain the run's cycle-domain trace together with
// the wall-clock window it executed in; cycles align to wall time as
// startNs + c * (endNs-startNs)/cycles. Runs served from the memo or
// cache never executed here and attach nothing.
//
// The trace snapshots to value events here, once, and the recorder is
// not retained: the snapshot severs the ring's *ir.Method pointers so
// the run's compiled program can be collected with the run.
func (t *JobTrace) AttachVM(tr *telemetry.Trace, start, end time.Time, cycles uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	startNs, endNs := start.UnixNano(), end.UnixNano()
	r := &VMRun{
		// Event timestamps are relative to the chain's first instant,
		// like the service spans in the merged document.
		Events:  tr.NamedEvents(alignCycles(startNs, endNs, cycles, t.curAnchorLocked())),
		Threads: tr.Threads(),
		Drops:   tr.TotalDrops(),
		StartNs: startNs,
		EndNs:   endNs,
		Cycles:  cycles,
	}
	for tid := 0; tid < tr.Threads(); tid++ {
		r.Total += tr.Total(tid)
	}
	t.vm = r
}

// curAnchorLocked returns the chain's first wall-clock instant — the
// merged document's time base. Callers hold t.mu.
func (t *JobTrace) curAnchorLocked() int64 {
	if len(t.spans) > 0 {
		return t.spans[0].StartNs
	}
	return t.start.UnixNano()
}

// VM returns the attached run, or nil when the run was not traced (the
// mode was not full, or the result came from the memo or cache).
func (t *JobTrace) VM() *VMRun {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.vm
}
