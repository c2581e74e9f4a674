package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/telemetry"
)

// Daemon metric names, exposed at GET /metrics in Prometheus text
// format (dots become underscores there).
const (
	MetricJobsAccepted  = "jobs.accepted"   // counter: jobs admitted to the queue
	MetricJobsRejected  = "jobs.rejected"   // counter: jobs refused with 429 (queue full)
	MetricJobsCompleted = "jobs.completed"  // counter: jobs finished successfully
	MetricJobsFailed    = "jobs.failed"     // counter: jobs finished in error (timeouts included)
	MetricJobsCancelled = "jobs.cancelled"  // counter: jobs cancelled (DELETE or drain)
	MetricQueueDepth    = "queue.depth"     // gauge: jobs waiting for a worker
	MetricJobDuration   = "job.duration_ms" // histogram: accepted-to-terminal latency
)

// MetricStageUs names the per-stage duration histogram for one
// lifecycle stage ("stage.<name>.duration_us"), fed from each finished
// job's attribution ledger when the obs mode is not off.
func MetricStageUs(stage obs.Stage) string {
	return "stage." + stage.String() + ".duration_us"
}

// Config configures a Server. The zero value is usable: a local pool of
// 1 worker, a 64-deep queue, no cache, a private registry.
type Config struct {
	// Executor runs the admitted jobs. Nil means the local executor: a
	// worker pool over the experiment engine, sized by Workers and backed
	// by Cache — isampd's. isampfleet passes its fabric.Coordinator.
	Executor Executor
	// Workers is the local pool size — the number of jobs running
	// concurrently (minimum 1). Unused with an Executor.
	Workers int
	// QueueDepth bounds the number of accepted-but-not-started jobs.
	// A full queue rejects submissions with 429 + Retry-After; the
	// daemon never buffers without bound (default 64).
	QueueDepth int
	// RetainJobs bounds how many terminal jobs stay queryable; the
	// oldest are evicted first (default 1024).
	RetainJobs int
	// Cache, when non-nil, is the local engine's build-ID-keyed on-disk
	// result cache (identical jobs then complete near-instantly) and the
	// store served at /v1/cas. Unused with an Executor, which names its
	// own store.
	Cache *experiment.Cache
	// Registry receives the daemon's metrics (nil = private registry).
	Registry *telemetry.Registry
	// MaxBodyBytes bounds a POST or CAS PUT body (default 2 MiB).
	MaxBodyBytes int64
	// Logf, when non-nil, receives one line per job state change.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives structured leveled log records for
	// every job state change, each correlated with its job ID ("job"
	// attribute). Independent of Logf; set both to get both.
	Logger *slog.Logger
	// Obs is the daemon's observability state (internal/obs): the
	// runtime-togglable span/ledger mode and the shared span ring
	// (DESIGN.md §14). Nil gets a fresh state in mode off, so every
	// server serves /v1/obs and can be switched on at runtime.
	Obs *obs.State
	// TraceDir, when non-empty, receives one merged Chrome trace JSON
	// file per finished traced job (<id>.trace.json) — the -trace-dir
	// flag of isampd.
	TraceDir string
	// Now, when non-nil, replaces time.Now for every job timestamp and
	// the job-duration histogram — the deterministic-clock test hook
	// (DESIGN.md §10). It does NOT affect job timeouts (timeout_ms still
	// arms a real wall-clock context deadline).
	Now func() time.Time
}

// Executor runs the jobs a Server admits (DESIGN.md §10). The Server
// owns everything a client sees — job IDs, retention, status, the SSE
// log, ledger and trace, cancel and drain, /healthz, /metrics, /v1/obs
// and /v1/cas — so each of those behaviours has one implementation. An
// executor admits a job or reports its queue full, drives the job to a
// terminal state, names the store behind /v1/cas, and adds its own rows
// to /healthz. The local worker pool behind isampd is one executor; the
// fleet coordinator behind isampfleet (internal/fabric) is the other.
type Executor interface {
	// Start binds the executor to the server whose jobs it runs and
	// starts its goroutines; New calls it once.
	Start(s *Server)
	// Admit takes j into the executor's queue, or reports false when the
	// queue is full. It runs under the server's admission lock, so it
	// must not wait on the network or on other jobs. Once admitted, j
	// belongs to the executor until it is terminal: the executor moves it
	// through Job.Start and Job.Finish, and resolves it when its context
	// ends (Job.OnCancel).
	Admit(j *Job) bool
	// Cache names the store served at /v1/cas (nil: none).
	Cache() *experiment.Cache
	// Health adds the executor's own rows to the /healthz document.
	Health(doc map[string]any)
	// Stop stops the executor and returns once its goroutines have
	// exited. Shutdown calls it once every job is terminal.
	Stop()
}

// Server is the profiling-as-a-service job surface: admission, the job
// registry and the HTTP API (Handler) in front of an Executor. It is
// independent of any particular http.Server so tests can drive it with
// httptest.
type Server struct {
	cfg  Config
	exec Executor
	reg  *telemetry.Registry
	mux  *http.ServeMux
	now  func() time.Time

	// baseCtx parents every job's context; a forced drain ends it with
	// errShutdown as the cause.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	stopOnce   sync.Once

	drain       DrainEstimator
	subscribers atomic.Int64 // open SSE event streams

	mu       sync.Mutex
	draining bool
	seq      uint64
	jobs     map[string]*Job
	order    []string // insertion order, for retention eviction
	inflight sync.WaitGroup
}

// New builds a Server and starts its executor.
func New(cfg Config) *Server {
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.RetainJobs < 1 {
		cfg.RetainJobs = 1024
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 2 << 20
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewState(obs.Options{})
	}
	if cfg.Executor == nil {
		cfg.Executor = &localExecutor{workers: max(cfg.Workers, 1), cache: cfg.Cache}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		exec:       cfg.Executor,
		reg:        cfg.Registry,
		mux:        http.NewServeMux(),
		now:        cfg.Now,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/obs", s.handleObsGet)
	s.mux.HandleFunc("PUT /v1/obs", s.handleObsSet)
	s.mux.HandleFunc("GET /v1/cas/{addr}", s.handleCASGet)
	s.mux.HandleFunc("PUT /v1/cas/{addr}", s.handleCASPut)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.exec.Start(s)
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the daemon's metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Config returns the server's configuration with its defaults applied:
// an executor takes its registry, clock, log, queue bound and body limit
// from here.
func (s *Server) Config() Config { return s.cfg }

// RecordDrain notes that the executor took one job off its queue; the
// 429 Retry-After estimate divides the queue depth by the rate of these.
func (s *Server) RecordDrain() { s.drain.Record(s.now()) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// slogAt emits one structured record through the configured Logger;
// callers pass the job ID as a "job" attribute so every line correlates.
func (s *Server) slogAt(level slog.Level, msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Log(context.Background(), level, msg, args...)
	}
}

// jobFinished runs once per terminal job (Job.onFinish): it bumps the
// terminal-state counters and the duration histogram and feeds the
// attribution ledger into the per-stage duration histograms.
func (s *Server) jobFinished(j *Job, st JobStatus) {
	switch st {
	case StatusDone:
		s.reg.Counter(MetricJobsCompleted).Inc()
	case StatusCancelled:
		s.reg.Counter(MetricJobsCancelled).Inc()
	default:
		s.reg.Counter(MetricJobsFailed).Inc()
	}
	s.reg.Histogram(MetricJobDuration, telemetry.ExpBuckets(1, 16)).
		Observe(uint64(s.now().Sub(j.created).Milliseconds()))
	if l := j.trace.Ledger(); l != nil {
		for _, row := range l.Rows {
			s.reg.Histogram(MetricStageUs(row.Stage), telemetry.ExpBuckets(1, 24)).
				Observe(uint64(row.Ns / 1e3))
		}
	}
	s.logf("job %s %s", j.id, st)
	level := slog.LevelInfo
	if st != StatusDone {
		level = slog.LevelWarn
	}
	s.slogAt(level, "job finished", "job", j.id, "status", string(st))
	s.inflight.Done()
}

// dumpTrace writes the job's merged Chrome trace into TraceDir
// (Job.dump).
func (s *Server) dumpTrace(j *Job) {
	path := filepath.Join(s.cfg.TraceDir, j.id+".trace.json")
	f, err := os.Create(path)
	if err == nil {
		err = obs.WriteJobChromeTrace(f, j.trace)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.logf("job %s trace dump failed: %v", j.id, err)
		s.slogAt(slog.LevelWarn, "trace dump failed", "job", j.id, "path", path, "err", err)
	}
}

// Shutdown drains the daemon (DESIGN.md §10): new submissions are
// refused immediately; queued and running jobs get until ctx's deadline
// to finish on their own; past the deadline every remaining job context
// is cancelled and the executor resolves those jobs as cancelled — a
// local VM stops at its next observation point, a fleet job resolves at
// once. Shutdown returns once every job is terminal and the executor
// has stopped. ctx.Err() is returned when the hard-cancel path was
// taken, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.baseCancel(errShutdown)
		<-done
	}
	s.baseCancel(errShutdown)
	s.stopOnce.Do(s.exec.Stop)
	return forced
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit admits a job: validate, register, hand to the executor —
// or push back. Backpressure is non-negotiable: admission never blocks;
// a full executor queue answers 429 with Retry-After so clients back off
// instead of the daemon buffering without bound. The 202 carries the
// status the job has right after admission: queued, or already running
// or done when the executor attached it to work in flight or answered
// it from its store.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The span chain opens in StageAccept before the body is read, so the
	// accept stage covers request decoding. A rejected request abandons
	// the unnamed chain, which records nothing (obs.JobTrace.SetJob).
	tr := s.cfg.Obs.StartJob()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	// One JSON value per request: trailing data is a malformed body, not
	// a second job.
	if dec.More() {
		writeErr(w, http.StatusBadRequest, "invalid request body: trailing data after job spec")
		return
	}
	tr.Begin(obs.StageValidate, "")
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid job: %v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	j := newJob(id, spec, s.baseCtx, s.now)
	j.trace = tr
	j.onFinish = s.jobFinished
	if tr != nil && s.cfg.TraceDir != "" {
		j.dump = s.dumpTrace
	}
	s.inflight.Add(1) // jobFinished releases it
	if !s.exec.Admit(j) {
		s.seq-- // id not used
		s.inflight.Done()
		j.cancel()
		s.mu.Unlock()
		s.reg.Counter(MetricJobsRejected).Inc()
		s.slogAt(slog.LevelWarn, "job rejected", "reason", "queue full", "depth", s.cfg.QueueDepth)
		// Retry-After is proportional: the observed drain rate's estimate
		// of how long clearing the full queue will take, not a constant.
		w.Header().Set("Retry-After", s.drain.Header(s.cfg.QueueDepth, s.now()))
		writeErr(w, http.StatusTooManyRequests, "queue full (%d deep); retry later", s.cfg.QueueDepth)
		return
	}
	tr.SetJob(id)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictLocked()
	s.mu.Unlock()
	s.reg.Counter(MetricJobsAccepted).Inc()
	s.logf("job %s accepted (%s)", id, spec.describe())
	s.slogAt(slog.LevelInfo, "job accepted", "job", id, "spec", spec.describe())
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": string(j.Status())})
}

// evictLocked drops the oldest terminal jobs beyond the retention cap.
// Non-terminal jobs are never evicted. Caller holds s.mu.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.cfg.RetainJobs && len(s.order) > 0 {
		id := s.order[0]
		j, ok := s.jobs[id]
		if ok && !j.Status().Terminal() {
			return // oldest still live; nothing older to drop
		}
		s.order = s.order[1:]
		delete(s.jobs, id)
	}
}

// lookup finds a job by the request's {id} path value.
func (s *Server) lookup(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleTrace serves the job's merged Chrome trace: its wall-clock span
// chain plus, for runs executed at obs=full, the VM's cycle-domain
// events aligned to wall time (DESIGN.md §14). Live jobs get the spans
// closed so far; the document is complete once the job is terminal.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if j.trace == nil {
		writeErr(w, http.StatusNotFound, "no trace for job %q (obs mode was off at accept)", j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteJobChromeTrace(w, j.trace) //nolint:errcheck // client went away
}

// obsView renders the observability state for GET/PUT /v1/obs.
func (s *Server) obsView() map[string]any {
	t := s.cfg.Obs.Tracer()
	return map[string]any{
		"mode":          s.cfg.Obs.Mode().String(),
		"ring_capacity": t.Cap(),
		"spans_total":   t.Total(),
		"spans_dropped": t.Drops(),
	}
}

func (s *Server) handleObsGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.obsView())
}

// handleObsSet switches the obs mode at runtime: {"mode":"off|spans|full"}.
// Jobs already carrying a span chain finish it; jobs accepted after the
// switch follow the new mode.
func (s *Server) handleObsSet(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Mode string `json:"mode"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	m, err := obs.ParseMode(req.Mode)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.cfg.Obs.SetMode(m)
	s.logf("obs mode set to %s", m)
	s.slogAt(slog.LevelInfo, "obs mode changed", "mode", m.String())
	writeJSON(w, http.StatusOK, s.obsView())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	was := j.requestCancel()
	code := http.StatusAccepted
	if was.Terminal() {
		code = http.StatusConflict // nothing left to cancel
	}
	writeJSON(w, code, map[string]string{"id": j.id, "status": string(j.Status())})
}

// Introspection is a point-in-time snapshot of the daemon's internal
// state: the job population by phase, the drain flag, open event
// streams and the process's goroutine count — the drain-introspection
// test hook (DESIGN.md §10), also served at /healthz. Once every job is
// terminal and every SSE client has gone, Queued, Running and
// Subscribers are 0.
type Introspection struct {
	// Draining reports whether Shutdown has begun.
	Draining bool `json:"draining"`
	// Queued, Running and Terminal partition the retained job set.
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Terminal int `json:"terminal"`
	// Subscribers counts open SSE event streams across retained jobs.
	Subscribers int `json:"subscribers"`
	// Goroutines is runtime.NumGoroutine() at snapshot time.
	Goroutines int `json:"goroutines"`
}

// Introspect snapshots the daemon's internal state. Also served (merged
// into the health document) at GET /healthz.
func (s *Server) Introspect() Introspection {
	s.mu.Lock()
	in := Introspection{Draining: s.draining}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	in.Subscribers = int(s.subscribers.Load())
	for _, j := range jobs {
		switch j.Status() {
		case StatusQueued:
			in.Queued++
		case StatusRunning:
			in.Running++
		default:
			in.Terminal++
		}
	}
	in.Goroutines = runtime.NumGoroutine()
	return in
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	in := s.Introspect()
	status := "ok"
	if in.Draining {
		status = "draining"
	}
	doc := map[string]any{
		"status":      status,
		"jobs":        in.Queued + in.Running + in.Terminal,
		"queued":      in.Queued,
		"running":     in.Running,
		"terminal":    in.Terminal,
		"subscribers": in.Subscribers,
		"goroutines":  in.Goroutines,
		"build_id":    experiment.BuildID(),
		"obs":         s.cfg.Obs.Mode().String(),
	}
	s.exec.Health(doc)
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, s.reg) //nolint:errcheck // client went away
}

// handleEvents streams the job's event log as Server-Sent Events: one
// "columns" event when the column set freezes and one "metrics" event
// per captured row (at the job's events_interval cycle cadence) — or, on
// the fleet, the worker's own blocks relayed in order — then a "ledger"
// event when the job carries a span chain and a final "done" event with
// the terminal status. A late subscriber replays the backlog first. Jobs
// resolved from the memo table or a cache stream only "ledger" and
// "done": their VM never ran (DESIGN.md §10).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	s.subscribers.Add(1)
	defer s.subscribers.Add(-1)
	sent := 0
	flush := func() <-chan struct{} {
		blocks, wake := j.events.since(sent)
		for _, b := range blocks {
			w.Write(b) //nolint:errcheck // client went away; the select below exits
		}
		sent += len(blocks)
		fl.Flush()
		return wake
	}
	for {
		wake := flush()
		select {
		case <-wake:
		case <-j.done:
			flush() // blocks published between the last flush and finish
			// The span chain closes before done does (Job.Finish), so the
			// ledger streamed here is final: stage sums equal latency.
			if l := j.trace.Ledger(); l != nil {
				data, _ := json.Marshal(l)
				fmt.Fprintf(w, "event: ledger\ndata: %s\n\n", data)
			}
			fmt.Fprintf(w, "event: done\ndata: {\"status\":%q}\n\n", j.Status())
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}
