package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/telemetry"
)

// obsServer builds a test server with an observability state attached.
func obsServer(t *testing.T, mode obs.Mode, cfg Config) (*Server, *httptest0) {
	t.Helper()
	cfg.Obs = obs.NewState(obs.Options{Mode: mode})
	s, h := newTestServer(t, cfg)
	return s, &httptest0{URL: h.URL}
}

// httptest0 keeps obsServer's signature small without re-exporting the
// httptest server; only the base URL is needed.
type httptest0 struct{ URL string }

// jobSpans reaches into the server for a job's recorded span chain.
func jobSpans(t *testing.T, s *Server, id string) []obs.Span {
	t.Helper()
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("job %s not retained", id)
	}
	return j.trace.Spans()
}

// checkChain verifies the span chain invariants every accepted job must
// satisfy in a terminal state: the chain starts at accept, every span
// begins exactly where the previous one ended (gap-free), stages appear
// in canonical order, and the chain closes with a terminal instant
// carrying the expected status. It returns the observed stage sequence
// (terminal excluded).
func checkChain(t *testing.T, spans []obs.Span, id, status string) []obs.Stage {
	t.Helper()
	if len(spans) < 2 {
		t.Fatalf("%s: chain has %d spans, want at least accept+terminal", id, len(spans))
	}
	if spans[0].Stage != obs.StageAccept {
		t.Errorf("%s: chain starts with %v, want accept", id, spans[0].Stage)
	}
	var stages []obs.Stage
	for i, sp := range spans {
		if sp.Job != id {
			t.Errorf("%s: span %d carries job %q", id, i, sp.Job)
		}
		if i > 0 {
			if sp.StartNs != spans[i-1].EndNs {
				t.Errorf("%s: gap between %v (end %d) and %v (start %d)",
					id, spans[i-1].Stage, spans[i-1].EndNs, sp.Stage, sp.StartNs)
			}
			if sp.Stage <= spans[i-1].Stage {
				t.Errorf("%s: stage %v follows %v out of canonical order",
					id, sp.Stage, spans[i-1].Stage)
			}
		}
		if i < len(spans)-1 {
			stages = append(stages, sp.Stage)
		}
	}
	last := spans[len(spans)-1]
	if last.Stage != obs.StageTerminal {
		t.Fatalf("%s: chain ends with %v, want terminal", id, last.Stage)
	}
	if last.Cause != status {
		t.Errorf("%s: terminal cause %q, want %q", id, last.Cause, status)
	}
	if last.StartNs != last.EndNs {
		t.Errorf("%s: terminal span has extent %d ns", id, last.EndNs-last.StartNs)
	}
	return stages
}

// checkLedger verifies the attribution ledger invariant: per-stage
// durations sum to the end-to-end latency exactly, and the ledger spans
// the whole chain (first span start to terminal).
func checkLedger(t *testing.T, l *obs.Ledger, spans []obs.Span, id string) {
	t.Helper()
	if l == nil {
		t.Fatalf("%s: no ledger", id)
	}
	if l.Sum() != l.TotalNs {
		t.Errorf("%s: ledger sum %d != total %d", id, l.Sum(), l.TotalNs)
	}
	first, last := spans[0], spans[len(spans)-1]
	if want := last.EndNs - first.StartNs; l.TotalNs != want {
		t.Errorf("%s: ledger total %d != chain extent %d", id, l.TotalNs, want)
	}
	if len(l.Rows) != len(spans)-1 {
		t.Errorf("%s: ledger has %d rows for %d non-terminal spans", id, len(l.Rows), len(spans)-1)
	}
}

func wantStages(t *testing.T, got []obs.Stage, want ...obs.Stage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stages = %v, want %v", got, want)
		}
	}
}

// TestObsChainCompleted: a successful executed job walks accept →
// validate → queue-wait → cache-probe → compile → vm-run → export →
// terminal(done), gap-free, with the ledger summing exactly; an
// identical follow-up job is served by the on-disk cache and its chain
// ends after cache-probe.
func TestObsChainCompleted(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cache, err := experiment.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, h := obsServer(t, obs.ModeSpans, Config{Cache: cache})

	spec := JobSpec{Bench: "db", Scale: 0.01, Interval: 977}
	id := mustAccept(t, h.URL, spec)
	v := waitTerminal(t, h.URL, id, 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
	}
	spans := jobSpans(t, s, id)
	stages := checkChain(t, spans, id, "done")
	checkLedger(t, v.Ledger, spans, id)
	wantStages(t, stages, obs.StageAccept, obs.StageValidate, obs.StageQueueWait,
		obs.StageCacheProbe, obs.StageCompile, obs.StageVMRun, obs.StageExport)

	// Same spec on the same server: the engine memo (which retains
	// completed cells) serves it, and the memo-flight row names the job
	// that did the work.
	id2 := mustAccept(t, h.URL, spec)
	v2 := waitTerminal(t, h.URL, id2, 60*time.Second)
	if v2.Status != StatusDone {
		t.Fatalf("memoed job %s: %s (%s)", id2, v2.Status, v2.Error)
	}
	spans2 := jobSpans(t, s, id2)
	stages2 := checkChain(t, spans2, id2, "done")
	checkLedger(t, v2.Ledger, spans2, id2)
	wantStages(t, stages2, obs.StageAccept, obs.StageValidate, obs.StageQueueWait,
		obs.StageMemoFlight)
	if row, ok := v2.Ledger.Row(obs.StageMemoFlight); !ok || row.Cause != id {
		t.Errorf("memo-flight row = %+v ok=%v, want cause %q", row, ok, id)
	}

	// The shared ring kept every span of both jobs: no drops at the
	// default capacity, and every retained span is job-stamped.
	if d := s.cfg.Obs.Tracer().Drops(); d != 0 {
		t.Errorf("span drops = %d, want 0", d)
	}

	// Same spec on a fresh server sharing the cache directory: the
	// on-disk cache serves it and the chain ends at the probe.
	cache2, err := experiment.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s3, h3 := obsServer(t, obs.ModeSpans, Config{Cache: cache2})
	id3 := mustAccept(t, h3.URL, spec)
	v3 := waitTerminal(t, h3.URL, id3, 60*time.Second)
	if v3.Status != StatusDone {
		t.Fatalf("cached job %s: %s (%s)", id3, v3.Status, v3.Error)
	}
	spans3 := jobSpans(t, s3, id3)
	stages3 := checkChain(t, spans3, id3, "done")
	checkLedger(t, v3.Ledger, spans3, id3)
	wantStages(t, stages3, obs.StageAccept, obs.StageValidate, obs.StageQueueWait,
		obs.StageCacheProbe)
}

// TestObsChainCancelledRunning: DELETE on a running job closes the
// chain at the stage the cancel interrupted, terminal cause cancelled.
func TestObsChainCancelledRunning(t *testing.T) {
	t.Parallel()
	s, h := obsServer(t, obs.ModeSpans, Config{})
	id := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 31)})
	waitRunning(t, h.URL, id, 10*time.Second)
	// A job turns running at worker pickup, before the run opens its
	// compile stage; wait for the open stage to be vm-run, so the cancel
	// cannot land in between on a loaded host.
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if rows := j.trace.Ledger().Rows; rows[len(rows)-1].Stage == obs.StageVMRun {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached vm-run", id)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, h.URL+"/v1/jobs/"+id, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, h.URL, id, 10*time.Second)
	if v.Status != StatusCancelled {
		t.Fatalf("job %s: %s, want cancelled", id, v.Status)
	}
	spans := jobSpans(t, s, id)
	stages := checkChain(t, spans, id, "cancelled")
	checkLedger(t, v.Ledger, spans, id)
	// The cancel lands mid-run: the chain must have reached vm-run (the
	// slow source compiles instantly) and must not have an export stage.
	if got := stages[len(stages)-1]; got != obs.StageVMRun {
		t.Errorf("cancelled chain ends in %v, want vm-run", got)
	}
}

// TestObsChainCancelledQueued: a job cancelled while still queued emits
// accept → validate → queue-wait → terminal(cancelled) — complete and
// gap-free even though no worker ever touched it.
func TestObsChainCancelledQueued(t *testing.T) {
	t.Parallel()
	s, h := obsServer(t, obs.ModeSpans, Config{Workers: 1})
	running := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 32)})
	waitRunning(t, h.URL, running, 10*time.Second)
	queued := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 33)})

	req, _ := http.NewRequest(http.MethodDelete, h.URL+"/v1/jobs/"+queued, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, h.URL, queued, 10*time.Second)
	if v.Status != StatusCancelled {
		t.Fatalf("queued job %s: %s, want cancelled", queued, v.Status)
	}
	spans := jobSpans(t, s, queued)
	stages := checkChain(t, spans, queued, "cancelled")
	checkLedger(t, v.Ledger, spans, queued)
	wantStages(t, stages, obs.StageAccept, obs.StageValidate, obs.StageQueueWait)

	// Unblock the worker.
	req, _ = http.NewRequest(http.MethodDelete, h.URL+"/v1/jobs/"+running, nil)
	http.DefaultClient.Do(req) //nolint:errcheck
}

// TestObsChainTimeout: a job killed by its own timeout_ms budget
// resolves failed with a complete chain ending in the interrupted
// vm-run stage.
func TestObsChainTimeout(t *testing.T) {
	t.Parallel()
	s, h := obsServer(t, obs.ModeSpans, Config{})
	id := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 34), TimeoutMs: 150})
	v := waitTerminal(t, h.URL, id, 30*time.Second)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "timeout") {
		t.Fatalf("job %s: %s (%q), want failed with timeout", id, v.Status, v.Error)
	}
	spans := jobSpans(t, s, id)
	stages := checkChain(t, spans, id, "failed")
	checkLedger(t, v.Ledger, spans, id)
	if got := stages[len(stages)-1]; got != obs.StageVMRun {
		t.Errorf("timed-out chain ends in %v, want vm-run", got)
	}
}

// TestObsChainFailed: a compile-time failure (unknown scenario op is
// caught at validation, so use a source that assembles but traps) still
// produces a complete chain. A job whose program errors at run time
// resolves failed with the chain closed at the failing stage.
func TestObsChainFailed(t *testing.T) {
	t.Parallel()
	s, h := obsServer(t, obs.ModeSpans, Config{})
	// Division by zero traps at run time.
	id := mustAccept(t, h.URL, JobSpec{Source: `
func main() {
entry:
  const a, 1
  const b, 0
  div c, a, b
  ret c
}
`})
	v := waitTerminal(t, h.URL, id, 30*time.Second)
	if v.Status != StatusFailed {
		t.Fatalf("job %s: %s (%q), want failed", id, v.Status, v.Error)
	}
	spans := jobSpans(t, s, id)
	stages := checkChain(t, spans, id, "failed")
	checkLedger(t, v.Ledger, spans, id)
	if got := stages[len(stages)-1]; got != obs.StageVMRun {
		t.Errorf("failed chain ends in %v, want vm-run", got)
	}
}

// TestObsMemoDedupCauseLink: a job parked on another job's in-flight
// identical cell records a memo-flight span whose cause is the owning
// job's ID — the dedup path is attributable, not invisible.
func TestObsMemoDedupCauseLink(t *testing.T) {
	t.Parallel()
	s, h := obsServer(t, obs.ModeSpans, Config{Workers: 2})
	src := slowSrc(1<<61 + 35)
	owner := mustAccept(t, h.URL, JobSpec{Source: src})
	// The twin must arrive after the owner's cell has registered its
	// flight (the result store's one miss), so that it parks on it
	// rather than runs.
	eng := s.exec.(*localExecutor).eng
	deadline := time.Now().Add(10 * time.Second)
	for eng.ResultStats().Misses == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("owner %s never started its cell", owner)
		}
		time.Sleep(time.Millisecond)
	}
	waiter := mustAccept(t, h.URL, JobSpec{Source: src})

	// The live ledger reports the open memo-flight stage with its cause.
	deadline = time.Now().Add(10 * time.Second)
	for {
		v := getJob(t, h.URL, waiter)
		if v.Ledger != nil {
			if row, ok := v.Ledger.Row(obs.StageMemoFlight); ok {
				if row.Cause != owner {
					t.Fatalf("memo-flight cause = %q, want %q", row.Cause, owner)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiter %s never entered memo-flight (ledger %+v)", waiter, v.Ledger)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cancel both; the waiter's terminal chain must keep the cause link.
	for _, id := range []string{waiter, owner} {
		req, _ := http.NewRequest(http.MethodDelete, h.URL+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	v := waitTerminal(t, h.URL, waiter, 10*time.Second)
	spans := jobSpans(t, s, waiter)
	checkChain(t, spans, waiter, string(v.Status))
	checkLedger(t, v.Ledger, spans, waiter)
	row, ok := v.Ledger.Row(obs.StageMemoFlight)
	if !ok || row.Cause != owner {
		t.Fatalf("terminal memo-flight row = %+v ok=%v, want cause %q", row, ok, owner)
	}
}

// TestObsModeOffNoLedger: with the obs state present but off, jobs
// carry no chain and no ledger, and the trace endpoint 404s.
func TestObsModeOffNoLedger(t *testing.T) {
	t.Parallel()
	_, h := obsServer(t, obs.ModeOff, Config{})
	id := mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.01, Interval: 977})
	v := waitTerminal(t, h.URL, id, 60*time.Second)
	if v.Ledger != nil {
		t.Errorf("obs=off job has a ledger: %+v", v.Ledger)
	}
	resp, err := http.Get(h.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace endpoint at obs=off: %d, want 404", resp.StatusCode)
	}
}

// TestObsRuntimeToggle: PUT /v1/obs flips the mode without a restart;
// jobs accepted after the flip follow it.
func TestObsRuntimeToggle(t *testing.T) {
	t.Parallel()
	_, h := obsServer(t, obs.ModeOff, Config{})

	put := func(mode string) map[string]any {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"mode": mode})
		req, _ := http.NewRequest(http.MethodPut, h.URL+"/v1/obs", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT /v1/obs %s: %d", mode, resp.StatusCode)
		}
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m) //nolint:errcheck
		return m
	}
	if m := put("spans"); m["mode"] != "spans" {
		t.Fatalf("PUT returned %v", m)
	}
	id := mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.01, Interval: 977})
	v := waitTerminal(t, h.URL, id, 60*time.Second)
	if v.Ledger == nil {
		t.Error("job accepted after toggle-on has no ledger")
	}
	put("off")
	id2 := mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.011, Interval: 977})
	v2 := waitTerminal(t, h.URL, id2, 60*time.Second)
	if v2.Ledger != nil {
		t.Error("job accepted after toggle-off has a ledger")
	}

	var bad struct{ Error string }
	body, _ := json.Marshal(map[string]string{"mode": "verbose"})
	req, _ := http.NewRequest(http.MethodPut, h.URL+"/v1/obs", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&bad) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT bad mode: %d, want 400", resp.StatusCode)
	}
}

// TestObsFullMergedTrace: at obs=full the job's trace endpoint serves a
// merged Chrome document with wall-clock service spans (pid 1) and the
// VM's cycle-domain events aligned into the vm-run span window (pid 2).
func TestObsFullMergedTrace(t *testing.T) {
	t.Parallel()
	_, h := obsServer(t, obs.ModeFull, Config{})
	// call-edge instrumentation at a short interval guarantees fired
	// checks — the VM events the full-mode flight recorder keeps.
	id := mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.01, Instrument: []string{"call-edge"}, Interval: 977})
	v := waitTerminal(t, h.URL, id, 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
	}
	resp, err := http.Get(h.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("invalid merged trace JSON: %v", err)
	}
	var vmStart, vmEnd uint64
	var sawVMSpan bool
	for _, e := range doc.TraceEvents {
		if e.Pid == 1 && e.Ph == "X" && e.Name == "vm-run" {
			vmStart, vmEnd = e.Ts, e.Ts+e.Dur
			sawVMSpan = true
		}
	}
	if !sawVMSpan {
		t.Fatal("merged trace has no vm-run service span")
	}
	var vmEvents int
	for _, e := range doc.TraceEvents {
		if e.Pid != 2 || e.Ph == "M" {
			continue
		}
		vmEvents++
		if e.Ts < vmStart || e.Ts > vmEnd {
			t.Fatalf("VM event %q at %dµs outside vm-run span [%d, %d]µs",
				e.Name, e.Ts, vmStart, vmEnd)
		}
	}
	if vmEvents == 0 {
		t.Fatal("merged trace has no VM events at obs=full")
	}
	if c, ok := doc.OtherData["vmCycles"].(float64); !ok || c <= 0 {
		t.Errorf("otherData vmCycles = %v, want > 0", doc.OtherData["vmCycles"])
	}
}

// TestObsFullTraceCountsSamples: the full-mode flight recorder sees every
// fired check and probe although the metered run stays on fused streams
// (the publisher widens the meter's event mask by EvCheck|EvProbe). On
// a run that fits the ring, the VM trace holds exactly Stats.CheckFires
// sample records and Stats.Probes probe records — for OpCheck samples
// (full duplication) and for guard samples (no duplication) alike.
func TestObsFullTraceCountsSamples(t *testing.T) {
	t.Parallel()
	s, h := obsServer(t, obs.ModeFull, Config{})
	for _, tc := range []struct {
		variation string
		interval  int64
	}{{"full", 977}, {"nodup", 31}} {
		variation := tc.variation
		id := mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.005, Instrument: []string{"call-edge", "field-access"},
			Variation: variation, Interval: tc.interval})
		v := waitTerminal(t, h.URL, id, 60*time.Second)
		if v.Status != StatusDone {
			t.Fatalf("%s job %s: %s (%s)", variation, id, v.Status, v.Error)
		}
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		events, _, total, drops, _, _, _, attached := j.trace.VM()
		if !attached || drops != 0 || total != uint64(len(events)) {
			t.Fatalf("%s: trace attached=%v, %d of %d events kept, %d dropped; want the whole run in the ring",
				variation, attached, len(events), total, drops)
		}
		var samples, probes uint64
		for _, e := range events {
			switch e.Kind {
			case telemetry.EvCheckFired:
				samples++
			case telemetry.EvProbe:
				probes++
			}
		}
		st := v.Result.Stats
		if st.CheckFires == 0 || st.Probes == 0 {
			t.Fatalf("%s: run produced no samples (%+v)", variation, st)
		}
		if samples != st.CheckFires || probes != st.Probes {
			t.Errorf("%s: trace holds %d samples and %d probes, Stats report %d and %d",
				variation, samples, probes, st.CheckFires, st.Probes)
		}
	}
}

// TestObsSSELedgerEvent: the SSE stream of a traced job carries a final
// "ledger" event (before "done") whose rows sum to total_ns.
func TestObsSSELedgerEvent(t *testing.T) {
	t.Parallel()
	_, h := obsServer(t, obs.ModeSpans, Config{})
	id := mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.01, Interval: 977})
	waitTerminal(t, h.URL, id, 60*time.Second)

	resp, err := http.Get(h.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body) //nolint:errcheck // stream ends at done
	body := raw.String()
	li := strings.Index(body, "event: ledger\ndata: ")
	if li < 0 {
		t.Fatalf("no ledger event in stream:\n%s", body)
	}
	if di := strings.Index(body, "event: done"); di < li {
		t.Fatal("ledger event must precede done")
	}
	line := body[li+len("event: ledger\ndata: "):]
	line = line[:strings.Index(line, "\n")]
	var l obs.Ledger
	if err := json.Unmarshal([]byte(line), &l); err != nil {
		t.Fatalf("invalid ledger JSON %q: %v", line, err)
	}
	if l.Sum() != l.TotalNs || l.TotalNs == 0 {
		t.Errorf("SSE ledger sum %d / total %d, want equal and non-zero", l.Sum(), l.TotalNs)
	}
	if l.Status != string(StatusDone) {
		t.Errorf("SSE ledger status %q, want done", l.Status)
	}
}

// TestObsStageHistograms: finished traced jobs feed the per-stage
// duration histograms in the daemon registry.
func TestObsStageHistograms(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	_, h := obsServer(t, obs.ModeSpans, Config{Registry: reg})
	id := mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.01, Interval: 977})
	waitTerminal(t, h.URL, id, 60*time.Second)

	for _, st := range []obs.Stage{obs.StageAccept, obs.StageQueueWait, obs.StageVMRun} {
		hist := reg.Histogram(MetricStageUs(st), telemetry.ExpBuckets(1, 24))
		if got := hist.Count(); got == 0 {
			t.Errorf("histogram %s empty after a traced job", MetricStageUs(st))
		}
	}
	// The Prometheus surface renders them.
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body) //nolint:errcheck
	if !strings.Contains(buf.String(), "stage_vm_run_duration_us") {
		t.Errorf("/metrics missing stage histogram:\n%.400s", buf.String())
	}
}

// TestObsTraceDir: -trace-dir behaviour — each finished traced job
// leaves a valid merged Chrome trace file named after it.
func TestObsTraceDir(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, h := obsServer(t, obs.ModeSpans, Config{TraceDir: dir})
	id := mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.01, Interval: 977})
	waitTerminal(t, h.URL, id, 60*time.Second)

	data, err := os.ReadFile(filepath.Join(dir, id+".trace.json"))
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid Chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
}

// TestJobDumpBeforeTerminal pins the order TestObsTraceDir relies on:
// Finish runs the trace dump after closing the span chain and before
// the terminal status is visible, so a client that polls the job to a
// terminal state can read the dump at once.
func TestJobDumpBeforeTerminal(t *testing.T) {
	j := newJob("job-000001", JobSpec{}, context.Background(), nil)
	var during JobStatus
	dumps := 0
	j.dump = func(j *Job) { during, dumps = j.status, dumps+1 } // under j.mu
	j.Finish(StatusDone, "", nil)
	j.Finish(StatusCancelled, "late", nil)
	if dumps != 1 || during.Terminal() || j.Status() != StatusDone {
		t.Fatalf("dumped %d times with status %q during the dump, final status %q; want once, not yet terminal, done", dumps, during, j.Status())
	}
}

// TestObsGetEndpoint: GET /v1/obs reports mode and exact ring
// accounting; a server built without an obs state gets one in mode off,
// which /v1/obs and /healthz both report.
func TestObsGetEndpoint(t *testing.T) {
	t.Parallel()
	_, h := obsServer(t, obs.ModeSpans, Config{})
	id := mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.01, Interval: 977})
	waitTerminal(t, h.URL, id, 60*time.Second)

	resp, err := http.Get(h.URL + "/v1/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["mode"] != "spans" {
		t.Errorf("mode = %v, want spans", m["mode"])
	}
	if tot, _ := m["spans_total"].(float64); tot < 7 {
		t.Errorf("spans_total = %v, want >= 7 (one full chain)", m["spans_total"])
	}
	if d, _ := m["spans_dropped"].(float64); d != 0 {
		t.Errorf("spans_dropped = %v, want 0", m["spans_dropped"])
	}

	_, h2 := newTestServer(t, Config{})
	for _, path := range []string{"/v1/obs", "/healthz"} {
		resp, err := http.Get(h2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s without obs state: %d, want 200", path, resp.StatusCode)
		}
		key := "mode"
		if path == "/healthz" {
			key = "obs"
		}
		if doc[key] != "off" {
			t.Errorf("GET %s without obs state: %s = %v, want off", path, key, doc[key])
		}
	}
}

// TestObsLedgerSumEqualsJobLatency ties the ledger to the job record:
// for a deterministic clock, total_ns equals finished-created exactly.
func TestObsLedgerSumEqualsJobLatency(t *testing.T) {
	t.Parallel()
	// Obs and the job record share one clock so the comparison is exact.
	st := obs.NewState(obs.Options{Mode: obs.ModeSpans})
	s, h := newTestServer(t, Config{Obs: st})
	_ = s
	id := mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.01, Interval: 977})
	v := waitTerminal(t, h.URL, id, 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
	}
	if v.Ledger.Sum() != v.Ledger.TotalNs {
		t.Fatalf("ledger sum %d != total %d", v.Ledger.Sum(), v.Ledger.TotalNs)
	}
	// Both clocks are time.Now; the chain opens at handler entry (before
	// job.created) and closes at terminal (job.finished is stamped just
	// before the chain closes), so the ledger total brackets the job
	// record's latency tightly.
	if v.Started == nil || v.Finished == nil {
		t.Fatal("missing timestamps")
	}
	recLatency := v.Finished.Sub(v.Created).Nanoseconds()
	if v.Ledger.TotalNs < recLatency {
		t.Errorf("ledger total %dns < created-to-finished %dns", v.Ledger.TotalNs, recLatency)
	}
	if slack := v.Ledger.TotalNs - recLatency; slack > int64(time.Second) {
		t.Errorf("ledger total exceeds job latency by %v — implausible", time.Duration(slack))
	}
}
