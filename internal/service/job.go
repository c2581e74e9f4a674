package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"instrsample/internal/obs"
	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
	"instrsample/internal/vm"
)

// JobStatus is the job state machine: queued → running → one of the
// three terminal states. DELETE moves a queued or running job to
// cancelled; a wall-clock timeout moves it to failed (a deadline is a
// job outcome, not an operator request — see DESIGN.md §10).
type JobStatus string

const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// OracleVerdict is the invariant oracle's summary for a Verify job.
type OracleVerdict struct {
	// OK is true when every sampling invariant held.
	OK bool `json:"ok"`
	// Events is the number of observer events the oracle checked.
	Events int64 `json:"events"`
	// ExpectedP1 counts the bounded, expected Property-1 excesses.
	ExpectedP1 int64 `json:"expected_p1"`
	// Error is the first violation, when OK is false.
	Error string `json:"error,omitempty"`
}

// ProfileOverlap is one profile's accuracy against the exhaustive
// reference run (the paper's overlap percentage).
type ProfileOverlap struct {
	// Name is the profile name (shared by sampled and reference).
	Name string `json:"name"`
	// Percent is the overlap percentage in [0, 100].
	Percent float64 `json:"percent"`
}

// ProfileDump is the JSON rendering of one instrumentation profile: the
// entry multiset in the deterministic descending-count order that
// profile.Entries defines.
type ProfileDump struct {
	Name    string          `json:"name"`
	Total   uint64          `json:"total"`
	Events  int             `json:"events"`
	Entries []profile.Entry `json:"entries,omitempty"`
}

// dumpProfile converts a live profile to its JSON form.
func dumpProfile(p *profile.Profile) ProfileDump {
	return ProfileDump{
		Name:    p.Name,
		Total:   p.Total(),
		Events:  p.NumEvents(),
		Entries: p.Entries(),
	}
}

// JobResult is the terminal payload of a successful job.
type JobResult struct {
	// Return and Output are the program's observable behaviour — equal,
	// byte for byte, to what isamp prints for the same configuration.
	Return int64   `json:"return"`
	Output []int64 `json:"output,omitempty"`
	// Stats are the VM's execution counters.
	Stats vm.Stats `json:"stats"`
	// Profiles are the instrumentation profiles, in owner order.
	Profiles []ProfileDump `json:"profiles,omitempty"`
	// CodeSize, CheckingCodeSize and DuplicatedCodeSize are the compiled
	// code sizes in bytes.
	CodeSize           int `json:"code_size"`
	CheckingCodeSize   int `json:"checking_code_size,omitempty"`
	DuplicatedCodeSize int `json:"duplicated_code_size,omitempty"`
	// Oracle is the invariant verdict (Verify jobs only).
	Oracle *OracleVerdict `json:"oracle,omitempty"`
	// Overlap holds per-profile accuracy vs the exhaustive reference
	// (Overlap jobs only).
	Overlap []ProfileOverlap `json:"overlap,omitempty"`
}

// jobView is the GET /v1/jobs/{id} response body.
type jobView struct {
	ID       string     `json:"id"`
	Status   JobStatus  `json:"status"`
	Spec     string     `json:"spec"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Result is the terminal payload as its executor produced it: a
	// *JobResult when built on this node (a local run, or a fleet CAS
	// hit), a fleet worker's own JSON verbatim when the worker ran it.
	Result any `json:"result,omitempty"`
	// Worker names the fleet worker running the job's cell (fleet only).
	Worker string `json:"worker,omitempty"`
	// Ledger is the job's wall-clock attribution (present when the obs
	// mode was not off at accept): exact per-stage durations that sum to
	// the end-to-end latency. Live jobs report the open stage up to now.
	Ledger *obs.Ledger `json:"ledger,omitempty"`
}

// errShutdown is the cause a forced drain ends every live job's context
// with.
var errShutdown = errors.New("server shutting down")

// Job is one client-visible job. The Server owns everything a client
// sees of it — ID, retention, status document, SSE event log, ledger
// and trace; an Executor drives it to a terminal state through Start,
// SetWorker, AppendEvents and Finish, and learns of a DELETE, a
// timeout_ms deadline or a forced drain through OnCancel. Mutable state
// is guarded by mu; ctx/cancel and the immutables are set at creation.
type Job struct {
	id      string
	spec    JobSpec
	created time.Time
	now     func() time.Time
	// ctx ends on DELETE, at the timeout_ms deadline, on a forced drain,
	// and at the latest when the job turns terminal (Finish releases it).
	ctx    context.Context
	cancel context.CancelFunc
	// trace is the job's span chain (nil when the obs mode was off at
	// accept). Set before the job is shared, immutable afterwards; the
	// chain has its own lock, so it is read without j.mu.
	trace *obs.JobTrace
	// onFinish, when non-nil, runs once when the job reaches a terminal
	// state, after the span chain closes and before done closes — the
	// server's hook for terminal accounting and ledger metrics. Set
	// before the job is shared.
	onFinish func(*Job, JobStatus)
	// dump, when non-nil, writes the closed span chain out (the server's
	// trace-dir dump). Finish runs it once, under mu, between closing the
	// chain and publishing the terminal status, so a client that sees
	// the job terminal finds the dump complete. Set before the job is
	// shared.
	dump func(*Job)
	// done closes when the job reaches a terminal state.
	done chan struct{}
	// events is the job's SSE event log.
	events eventLog

	mu        sync.Mutex
	status    JobStatus
	started   time.Time
	finished  time.Time
	errMsg    string
	result    any
	worker    string
	requested bool        // DELETE arrived (distinguishes cancel from timeout)
	unwatch   func() bool // unregisters the OnCancel callback
}

func newJob(id string, spec JobSpec, parent context.Context, now func() time.Time) *Job {
	var ctx context.Context
	var cancel context.CancelFunc
	if spec.TimeoutMs > 0 {
		ctx, cancel = context.WithTimeout(parent, time.Duration(spec.TimeoutMs)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	if now == nil {
		now = time.Now
	}
	return &Job{
		id:      id,
		spec:    spec,
		created: now(),
		now:     now,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  StatusQueued,
	}
}

// ID returns the job's ID.
func (j *Job) ID() string { return j.id }

// Spec returns the job's validated, defaulted spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Trace returns the job's span chain (nil when the obs mode was off at
// accept; every JobTrace method tolerates nil).
func (j *Job) Trace() *obs.JobTrace { return j.trace }

// view snapshots the job for JSON rendering.
func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:      j.id,
		Status:  j.status,
		Spec:    j.spec.describe(),
		Created: j.created,
		Error:   j.errMsg,
		Result:  j.result,
		Worker:  j.worker,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	v.Ledger = j.trace.Ledger() // nil-safe; nil when obs was off
	return v
}

// Status returns the current state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Start moves a queued job to running as of at. It reports false, and
// changes nothing, when the job is no longer queued or its context has
// ended: a job cancelled while queued never starts, and its OnCancel
// callback resolves it instead.
func (j *Job) Start(at time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued || j.ctx.Err() != nil {
		return false
	}
	j.status = StatusRunning
	j.started = at
	return true
}

// SetWorker names the fleet worker running the job's cell ("" while
// none does).
func (j *Job) SetWorker(name string) {
	j.mu.Lock()
	j.worker = name
	j.mu.Unlock()
}

// AppendEvents adds encoded SSE blocks ("event: ...\ndata: ...\n\n") to
// the job's event log, in order, and wakes its subscribers.
func (j *Job) AppendEvents(blocks ...[]byte) { j.events.append(blocks...) }

// Finish moves the job to a terminal state with the given result (the
// value the job document encodes; nil for none) and wakes every waiter.
// Later calls are no-ops, so a cancel racing a natural completion
// resolves to whichever lands first.
func (j *Job) Finish(st JobStatus, errMsg string, result any) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.finished = j.now()
	// Close the span chain as the status turns terminal, so anyone who
	// sees the terminal status (the job view, the SSE ledger event) sees
	// a final ledger whose stage sum equals the end-to-end latency — and,
	// closed after the finished stamp, brackets created-to-finished.
	j.trace.Finish(string(st))
	if j.dump != nil {
		j.dump(j)
	}
	j.status = st
	j.errMsg = errMsg
	j.result = result
	unwatch := j.unwatch
	j.mu.Unlock()
	if unwatch != nil {
		unwatch()
	}
	// The outcome is settled, so the context has nothing left to say:
	// release it before done closes, so no terminal job stays registered
	// under the server's base context.
	j.cancel()
	if j.onFinish != nil {
		j.onFinish(j, st)
	}
	close(j.done)
}

// OnCancel arranges for f to run, on its own goroutine, when the job's
// context ends while the job is still live: a DELETE, the timeout_ms
// deadline or a forced drain. Finish unregisters it, so f never runs for
// a job that turned terminal on its own. An executor calls it at most
// once per job.
func (j *Job) OnCancel(f func()) {
	stop := context.AfterFunc(j.ctx, func() {
		if !j.Status().Terminal() {
			f()
		}
	})
	j.mu.Lock()
	terminal := j.status.Terminal()
	if !terminal {
		j.unwatch = stop
	}
	j.mu.Unlock()
	if terminal {
		stop()
	}
}

// Abort resolves the job with the outcome its ended context implies:
// failed at the timeout_ms deadline, cancelled after a DELETE or a
// forced drain.
func (j *Job) Abort() {
	st, msg := j.outcome(context.Cause(j.ctx))
	j.Finish(st, msg, nil)
}

// outcome maps the error a job's run (or its context) ended with to the
// job's terminal state: an operator DELETE or a drain is cancelled; a
// deadline is failed — the job ran out of its own budget; anything else
// is failed with the cause.
func (j *Job) outcome(err error) (JobStatus, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return StatusFailed, fmt.Sprintf("timeout after %dms", j.spec.TimeoutMs)
	case j.cancelRequested():
		return StatusCancelled, "cancelled"
	case errors.Is(err, errShutdown):
		return StatusCancelled, err.Error()
	case errors.Is(err, context.Canceled) || vm.IsCancelled(err):
		return StatusCancelled, "cancelled: " + err.Error()
	default:
		return StatusFailed, err.Error()
	}
}

// requestCancel marks the job operator-cancelled and ends its context;
// the executor then resolves it (OnCancel, or the running VM's next
// observation point). Terminal jobs are left untouched; the returned
// status is the state the job was in when the request landed.
func (j *Job) requestCancel() JobStatus {
	j.mu.Lock()
	st := j.status
	if !st.Terminal() {
		j.requested = true
	}
	j.mu.Unlock()
	if !st.Terminal() {
		j.cancel()
	}
	return st
}

// cancelRequested reports whether DELETE arrived (vs a timeout firing
// the same context).
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.requested
}

// eventLog is a job's SSE event log: encoded "columns" and "metrics"
// blocks in publish order. Blocks only append and are never modified,
// so a reader replays from its own offset and every subscriber — late
// or early — receives the same bytes.
type eventLog struct {
	mu      sync.Mutex
	blocks  [][]byte
	hasCols bool
	// wake closes on the next append; nil until a reader waits on it.
	wake chan struct{}
}

// sseBlock encodes one Server-Sent Event.
func sseBlock(event string, data []byte) []byte {
	b := make([]byte, 0, len("event: \ndata: \n\n")+len(event)+len(data))
	b = append(b, "event: "...)
	b = append(b, event...)
	b = append(b, "\ndata: "...)
	b = append(b, data...)
	return append(b, "\n\n"...)
}

// append adds blocks and wakes every waiting reader.
func (l *eventLog) append(blocks ...[]byte) {
	l.mu.Lock()
	l.appendLocked(blocks)
	l.mu.Unlock()
}

func (l *eventLog) appendLocked(blocks [][]byte) {
	l.blocks = append(l.blocks, blocks...)
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// publish appends freshly captured metrics rows as "metrics" blocks,
// preceded — once, whichever publisher gets there first — by the
// "columns" block naming their values.
func (l *eventLog) publish(cols []string, rows []telemetry.SeriesRow) {
	if len(rows) == 0 {
		return
	}
	blocks := make([][]byte, 0, len(rows)+1)
	for _, row := range rows {
		data, err := json.Marshal(row)
		if err != nil {
			continue
		}
		blocks = append(blocks, sseBlock("metrics", data))
	}
	l.mu.Lock()
	if !l.hasCols {
		data, _ := json.Marshal(cols) // a []string always marshals
		l.blocks = append(l.blocks, sseBlock("columns", data))
		l.hasCols = true
	}
	l.appendLocked(blocks)
	l.mu.Unlock()
}

// since returns the blocks past offset n and a channel that closes on
// the next append.
func (l *eventLog) since(n int) ([][]byte, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	if n >= len(l.blocks) {
		return nil, l.wake
	}
	return l.blocks[n:len(l.blocks):len(l.blocks)], l.wake
}
