package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/telemetry"
)

// newTestServer builds a Server plus an httptest front end and tears
// both down (force-draining any stuck jobs) when the test ends.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	h := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Logf("shutdown took the forced path: %v", err)
		}
		h.Close()
	})
	return s, h
}

// postJob submits a spec and returns the response (body closed) plus its
// decoded JSON body.
func postJob(t *testing.T, base string, spec JobSpec) (*http.Response, map[string]any) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m) //nolint:errcheck // some errors have empty bodies
	return resp, m
}

// mustAccept submits a spec that must be accepted and returns the job ID.
func mustAccept(t *testing.T, base string, spec JobSpec) string {
	t.Helper()
	resp, m := postJob(t, base, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d (%v), want 202", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("submit: no id in %v", m)
	}
	return id
}

// jobDoc is the job document a local daemon serves, with the result
// decoded into its concrete type.
type jobDoc struct {
	jobView
	Result *JobResult `json:"result,omitempty"`
}

// getJob fetches a job's view.
func getJob(t *testing.T, base, id string) jobDoc {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var v jobDoc
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, base, id string, timeout time.Duration) jobDoc {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, base, id)
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.Status, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitRunning polls a job until it leaves the queue.
func waitRunning(t *testing.T, base, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, base, id)
		if v.Status == StatusRunning {
			return
		}
		if v.Status.Terminal() {
			t.Fatalf("job %s terminal (%s) before running", id, v.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// slowSrc builds an effectively unbounded counted loop; n varies the
// cell key so slow jobs in different tests never share a memo flight.
func slowSrc(n int64) string {
	return fmt.Sprintf(`
func main() {
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
}
`, n)
}

func TestSubmitValidation(t *testing.T) {
	t.Parallel()
	_, h := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "not json at all", http.StatusBadRequest},
		{"empty spec", "{}", http.StatusBadRequest},
		{"both source and bench", `{"source":"x","bench":"compress"}`, http.StatusBadRequest},
		{"unknown field", `{"bench":"compress","shoesize":9}`, http.StatusBadRequest},
		{"unknown bench", `{"bench":"nope"}`, http.StatusBadRequest},
		{"bad trigger", `{"bench":"compress","trigger":"sometimes"}`, http.StatusBadRequest},
		{"bad variation", `{"bench":"compress","variation":"total"}`, http.StatusBadRequest},
		{"yieldopt without variation", `{"bench":"compress","yieldopt":true}`, http.StatusBadRequest},
		{"bad instrumentation", `{"bench":"compress","instrument":["heap"]}`, http.StatusBadRequest},
		{"overlap without instrument", `{"bench":"compress","overlap":true}`, http.StatusBadRequest},
		{"scale out of range", `{"bench":"compress","scale":999}`, http.StatusBadRequest},
		{"oversized body", `{"source":"` + strings.Repeat("x", 3<<20) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(h.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(h.URL + "/v1/jobs/job-000042")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestJobMatchesDirectRun checks the HTTP plumbing: a job submitted over
// HTTP must produce, byte for byte, the same result JSON as runSpec
// called directly on the same spec. The CLI↔job parity gate is
// TestCLIMatchesJob in cmd/isamp.
func TestJobMatchesDirectRun(t *testing.T) {
	t.Parallel()
	spec := JobSpec{
		Bench:      "compress",
		Scale:      0.03,
		Instrument: []string{"call-edge", "field-access"},
		Variation:  "full",
		Trigger:    "counter",
		Interval:   500,
		Verify:     true,
	}
	_, h := newTestServer(t, Config{Workers: 2})
	id := mustAccept(t, h.URL, spec)
	v := waitTerminal(t, h.URL, id, 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job %s: status %s (error %q), want done", id, v.Status, v.Error)
	}
	if v.Result == nil {
		t.Fatal("done job has no result")
	}
	if v.Started == nil || v.Finished == nil {
		t.Error("done job missing started/finished timestamps")
	}
	if v.Result.Oracle == nil || !v.Result.Oracle.OK {
		t.Errorf("verify job missing ok oracle verdict: %+v", v.Result.Oracle)
	}
	if v.Result.Stats.Cycles == 0 || len(v.Result.Profiles) != 2 {
		t.Errorf("implausible result: cycles=%d profiles=%d", v.Result.Stats.Cycles, len(v.Result.Profiles))
	}

	cr, err := runSpec(context.Background(), nil, spec.withDefaults(), nil, false)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := json.Marshal(BuildResult(spec.withDefaults(), cr, nil))
	if err != nil {
		t.Fatalf("marshal direct result: %v", err)
	}
	got, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatalf("marshal http result: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP result differs from direct run:\n http: %s\ndirect: %s", got, want)
	}
}

// TestMemoizedResultHoldsNoLabeler: a job result's profiles carry no
// labeler. Every instrumentation's labeler closes over its compiled
// program, so a labeler left in the engine's memo table pins that
// program's IR for as long as the daemon runs.
func TestMemoizedResultHoldsNoLabeler(t *testing.T) {
	t.Parallel()
	spec := JobSpec{
		Bench:      "db",
		Scale:      0.02,
		Instrument: []string{"call-edge", "field-access", "path"},
		Variation:  "full",
	}.withDefaults()
	eng := experiment.NewEngine(1, nil)
	cfg := experiment.Config{Engine: eng}
	first, err := eng.Do(cfg, []experiment.Cell{jobCell(eng, spec, nil, false)})
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Do(cfg, []experiment.Cell{jobCell(eng, spec, nil, false)})
	if err != nil {
		t.Fatal(err)
	}
	if second[0] != first[0] {
		t.Fatal("identical job was not served from the memo table")
	}
	if len(first[0].Profiles) != len(spec.Instrument) {
		t.Fatalf("%d profiles, want %d", len(first[0].Profiles), len(spec.Instrument))
	}
	for _, p := range first[0].Profiles {
		if p.Labeler != nil {
			t.Errorf("memoized %s profile keeps its labeler, and with it the compiled program", p.Name)
		}
	}
}

// TestIdenticalJobsShareResult: the second identical job is served from
// the engine memo — same result, and its event stream carries no metrics
// rows (only the done event), which is the documented cache-hit quirk.
func TestIdenticalJobsShareResult(t *testing.T) {
	t.Parallel()
	spec := JobSpec{
		Bench:      "db",
		Scale:      0.03,
		Instrument: []string{"call-edge"},
		Trigger:    "counter",
		Interval:   1000,
	}
	_, h := newTestServer(t, Config{})
	first := waitTerminal(t, h.URL, mustAccept(t, h.URL, spec), 60*time.Second)
	second := waitTerminal(t, h.URL, mustAccept(t, h.URL, spec), 60*time.Second)
	if first.Status != StatusDone || second.Status != StatusDone {
		t.Fatalf("statuses %s/%s, want done/done", first.Status, second.Status)
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if !bytes.Equal(a, b) {
		t.Errorf("memo-served result differs:\n%s\n%s", a, b)
	}
	metrics, _, done := readSSE(t, h.URL, second.ID, 10*time.Second)
	if metrics != 0 {
		t.Errorf("memo-served job streamed %d metrics rows, want 0", metrics)
	}
	if done != string(StatusDone) {
		t.Errorf("done event status %q, want done", done)
	}
}

// readSSE consumes a job's event stream until the done event and returns
// the number of metrics events, whether a columns event arrived, and the
// status carried by the done event.
func readSSE(t *testing.T, base, id string, timeout time.Duration) (metrics int, columns bool, done string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content-type %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			switch event {
			case "metrics":
				metrics++
			case "columns":
				columns = true
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			var d struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				t.Fatalf("bad done payload %q: %v", line, err)
			}
			return metrics, columns, d.Status
		}
	}
	t.Fatalf("event stream ended without done event (scan err %v)", sc.Err())
	return
}

// TestSSEStreamsMetrics: a live (non-memo-served) job streams the
// telemetry series — a columns event, metrics rows, then done.
func TestSSEStreamsMetrics(t *testing.T) {
	t.Parallel()
	spec := JobSpec{
		Bench:          "compress",
		Scale:          0.03,
		Instrument:     []string{"call-edge"},
		Trigger:        "counter",
		Interval:       137, // unique key: keep this run off any memo flight
		EventsInterval: 1 << 10,
	}
	_, h := newTestServer(t, Config{})
	id := mustAccept(t, h.URL, spec)
	metrics, columns, done := readSSE(t, h.URL, id, 60*time.Second)
	if metrics == 0 {
		t.Error("live job streamed no metrics events")
	}
	if !columns {
		t.Error("live job streamed no columns event")
	}
	if done != string(StatusDone) {
		t.Errorf("done event status %q, want done", done)
	}
	// The backlog replays in full for a late subscriber too.
	again, _, _ := readSSE(t, h.URL, id, 10*time.Second)
	if again != metrics {
		t.Errorf("late subscriber got %d metrics rows, live one got %d", again, metrics)
	}
}

// TestBackpressure: a full queue answers 429 + Retry-After; a queued job
// can be cancelled before it ever runs; a running one stops on DELETE.
func TestBackpressure(t *testing.T) {
	t.Parallel()
	s, h := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	running := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1 << 61)})
	waitRunning(t, h.URL, running, 10*time.Second)
	queued := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 1)})

	resp, m := postJob(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 2)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d (%v), want 429", resp.StatusCode, m)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < retryAfterMin || ra > retryAfterMax {
		t.Errorf("Retry-After %q, want an integer in [%d,%d]",
			resp.Header.Get("Retry-After"), retryAfterMin, retryAfterMax)
	}
	if got := s.Registry().Counter(MetricJobsRejected).Value(); got != 1 {
		t.Errorf("jobs.rejected = %d, want 1", got)
	}

	// Cancel the queued job: it must resolve without ever running.
	cancelJob(t, h.URL, queued, http.StatusAccepted)
	v := waitTerminal(t, h.URL, queued, 5*time.Second)
	if v.Status != StatusCancelled || v.Started != nil {
		t.Errorf("queued job after cancel: status %s started %v, want cancelled/never", v.Status, v.Started)
	}

	// Cancel the running job: the VM must stop at an observation point
	// well within the polling budget, and report cancelled.
	start := time.Now()
	cancelJob(t, h.URL, running, http.StatusAccepted)
	v = waitTerminal(t, h.URL, running, 10*time.Second)
	if v.Status != StatusCancelled {
		t.Errorf("running job after cancel: status %s (error %q), want cancelled", v.Status, v.Error)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancel took %v, want prompt termination", d)
	}
	// Cancelling a terminal job is a conflict, not a state change.
	cancelJob(t, h.URL, running, http.StatusConflict)
}

func cancelJob(t *testing.T, base, id string, want int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Errorf("DELETE %s: status %d, want %d", id, resp.StatusCode, want)
	}
}

// TestTimeoutFails: a job exceeding its own deadline is failed (a budget
// outcome), not cancelled (an operator request).
func TestTimeoutFails(t *testing.T) {
	t.Parallel()
	_, h := newTestServer(t, Config{})
	id := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 3), TimeoutMs: 150})
	v := waitTerminal(t, h.URL, id, 10*time.Second)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "timeout") {
		t.Errorf("timed-out job: status %s error %q, want failed/timeout", v.Status, v.Error)
	}
}

// TestOverlapJob: an Overlap job additionally runs the exhaustive
// reference and reports a per-profile overlap percentage.
func TestOverlapJob(t *testing.T) {
	t.Parallel()
	spec := JobSpec{
		Bench:      "db",
		Scale:      0.03,
		Instrument: []string{"call-edge", "field-access"},
		Variation:  "partial",
		Trigger:    "counter",
		Interval:   800,
		Overlap:    true,
	}
	_, h := newTestServer(t, Config{Workers: 2})
	v := waitTerminal(t, h.URL, mustAccept(t, h.URL, spec), 120*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("overlap job: status %s (error %q)", v.Status, v.Error)
	}
	if len(v.Result.Overlap) != 2 {
		t.Fatalf("overlap entries %d, want 2", len(v.Result.Overlap))
	}
	for _, ov := range v.Result.Overlap {
		if ov.Percent < 0 || ov.Percent > 100 {
			t.Errorf("overlap %s = %g, want [0,100]", ov.Name, ov.Percent)
		}
	}
}

// TestMetricsEndpoint validates the Prometheus surface end to end.
func TestMetricsEndpoint(t *testing.T) {
	t.Parallel()
	_, h := newTestServer(t, Config{})
	v := waitTerminal(t, h.URL, mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.01, Interval: 211}), 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job: status %s (error %q)", v.Status, v.Error)
	}
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content-type %q, want 0.0.4 text exposition", ct)
	}
	out := readAll(t, resp)
	for _, want := range []string{
		"# TYPE jobs_accepted counter\njobs_accepted 1\n",
		"# TYPE jobs_completed counter\njobs_completed 1\n",
		"# TYPE queue_depth gauge\nqueue_depth 0\n",
		"# TYPE job_duration_ms histogram\n",
		`job_duration_ms_bucket{le="+Inf"} 1`,
		"job_duration_ms_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n--- got ---\n%s", want, out)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(b)
}

// TestHealthzAndDrain: healthz reports ok, then draining; a draining
// server refuses new jobs with 503 and Shutdown returns nil on a clean
// drain.
func TestHealthzAndDrain(t *testing.T) {
	t.Parallel()
	s, h := newTestServer(t, Config{})
	resp, err := http.Get(h.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("healthz body %q, want status ok", body)
	}

	v := waitTerminal(t, h.URL, mustAccept(t, h.URL, JobSpec{Bench: "db", Scale: 0.01, Interval: 223}), 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job: status %s (error %q)", v.Status, v.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	r2, m := postJob(t, h.URL, JobSpec{Bench: "db"})
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post after drain: status %d (%v), want 503", r2.StatusCode, m)
	}
	resp, err = http.Get(h.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	resp.Body.Close()
	if !strings.Contains(body, `"status": "draining"`) {
		t.Errorf("healthz after drain %q, want draining", body)
	}
	// The drained job stays queryable.
	if got := getJob(t, h.URL, v.ID); got.Status != StatusDone {
		t.Errorf("job after drain: status %s, want done", got.Status)
	}
}

// TestForcedShutdownCancelsRunning: past the drain deadline, running jobs
// are hard-cancelled (stopping at the next observation point) and
// resolved cancelled; Shutdown reports the forced path.
func TestForcedShutdownCancelsRunning(t *testing.T) {
	t.Parallel()
	s, h := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	running := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 4)})
	waitRunning(t, h.URL, running, 10*time.Second)
	queued := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 5)})

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("forced shutdown returned %v, want DeadlineExceeded", err)
	}
	for _, id := range []string{running, queued} {
		if v := getJob(t, h.URL, id); v.Status != StatusCancelled {
			t.Errorf("job %s after forced shutdown: status %s, want cancelled", id, v.Status)
		}
	}
}

// TestFinishedJobReleasesContext: whatever the outcome — done, failed,
// timed out, cancelled while queued or while running, or served from the
// memo table — a terminal job's context is done, so no finished job
// stays registered under the server's base context.
func TestFinishedJobReleasesContext(t *testing.T) {
	t.Parallel()
	s, h := newTestServer(t, Config{Workers: 1})
	quick := JobSpec{Source: slowSrc(1000)}
	trap := JobSpec{Source: `
func main() {
entry:
  const a, 1
  const b, 0
  div c, a, b
  ret c
}
`}
	type finished struct {
		name string
		id   string
		want JobStatus
	}
	first := mustAccept(t, h.URL, quick)
	waitTerminal(t, h.URL, first, 30*time.Second)
	cases := []finished{
		{"done", first, StatusDone},
		{"memo", mustAccept(t, h.URL, quick), StatusDone},
		{"failed", mustAccept(t, h.URL, trap), StatusFailed},
		{"timeout", mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 40), TimeoutMs: 100}), StatusFailed},
	}
	for _, c := range cases {
		waitTerminal(t, h.URL, c.id, 30*time.Second)
	}
	running := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 41)})
	waitRunning(t, h.URL, running, 10*time.Second)
	queued := mustAccept(t, h.URL, JobSpec{Source: slowSrc(1<<61 + 42)})
	cancelJob(t, h.URL, queued, http.StatusAccepted)
	waitTerminal(t, h.URL, queued, 10*time.Second)
	cancelJob(t, h.URL, running, http.StatusAccepted)
	waitTerminal(t, h.URL, running, 10*time.Second)
	cases = append(cases,
		finished{"cancelled-queued", queued, StatusCancelled},
		finished{"cancelled-running", running, StatusCancelled})

	if hits := s.Registry().Counter("cells.memo_hit.service").Value(); hits != 1 {
		t.Errorf("memo hits = %d, want 1 (the repeated spec)", hits)
	}
	for _, c := range cases {
		s.mu.Lock()
		j := s.jobs[c.id]
		s.mu.Unlock()
		<-j.done
		if st := j.Status(); st != c.want {
			t.Errorf("%s job %s: status %s, want %s", c.name, c.id, st, c.want)
		}
		if j.ctx.Err() == nil {
			t.Errorf("%s job %s: terminal, but its context is still live", c.name, c.id)
		}
	}
}

// TestCellKeyIgnoresEventsCadence: the SSE cadence must not fragment the
// memo/cache keyspace, and the overlap reference key must be the
// exhaustive configuration's own key.
func TestCellKeyIgnoresEventsCadence(t *testing.T) {
	t.Parallel()
	a := JobSpec{Bench: "compress", Instrument: []string{"call-edge"}, Variation: "full"}.withDefaults()
	b := a
	b.EventsInterval = 1 << 20
	if a.cellKey() != b.cellKey() {
		t.Errorf("events cadence leaked into the cell key:\n%s\n%s", a.cellKey(), b.cellKey())
	}
	if a.cellKey() == a.overlapKey() {
		t.Error("overlap reference key equals the sampled key")
	}
	ref := a.overlapSpec()
	if ref.Trigger != "never" || ref.Variation != "" || ref.Verify {
		t.Errorf("overlap reference spec not exhaustive: %+v", ref)
	}
	if err := ref.validate(); err != nil {
		t.Errorf("overlap reference spec invalid: %v", err)
	}
}

// TestEventLogConcurrentPublishers drives the job event log — the store
// behind SSE backlog replay — from many concurrent publishers while a
// reader consumes incrementally via since, and checks the replay
// guarantees the handler relies on: exactly one columns block, first;
// blocks only ever append (successive reads are prefix-consistent, and
// incremental reads equal the full replay); no row is lost or
// duplicated; and each publisher's rows appear in its own publish order.
func TestEventLogConcurrentPublishers(t *testing.T) {
	const (
		publishers   = 8
		rowsPerPub   = 200
		totalRows    = publishers * rowsPerPub
		batchMaxRows = 7
	)
	var l eventLog
	cols := []string{"pub", "seq"}

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			seq := 0
			for seq < rowsPerPub {
				n := 1 + (seq+p)%batchMaxRows
				if seq+n > rowsPerPub {
					n = rowsPerPub - seq
				}
				batch := make([]telemetry.SeriesRow, n)
				for i := range batch {
					batch[i] = telemetry.SeriesRow{
						At:     uint64(seq + i),
						Values: []int64{int64(p), int64(seq + i)},
					}
				}
				l.publish(cols, batch)
				seq += n
			}
		}(p)
	}

	// A concurrent reader consuming incrementally, exactly as the SSE
	// handler does: every since(sent) call must return blocks it has not
	// seen, in log order, and the wake channel must fire on the next
	// append.
	readerDone := make(chan [][]byte, 1)
	go func() {
		var got [][]byte
		for len(got) < totalRows+1 {
			blocks, wake := l.since(len(got))
			got = append(got, blocks...)
			if len(blocks) == 0 {
				<-wake
			}
		}
		readerDone <- got
	}()
	wg.Wait()
	var incremental [][]byte
	select {
	case incremental = <-readerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("incremental reader starved")
	}

	// A late subscriber replaying the whole backlog at once (the SSE
	// handler's first flush) must see the identical sequence.
	replay, _ := l.since(0)
	if len(replay) != totalRows+1 {
		t.Fatalf("backlog replay has %d blocks, want %d rows + 1 columns block", len(replay), totalRows)
	}
	if !reflect.DeepEqual(incremental, replay) {
		t.Error("incremental reads and full backlog replay diverge")
	}
	if got, want := string(replay[0]), "event: columns\ndata: [\"pub\",\"seq\"]\n\n"; got != want {
		t.Errorf("first block = %q, want the columns block %q", got, want)
	}

	// Per-publisher order is preserved and nothing is lost or duplicated.
	next := make([]int64, publishers)
	for i, b := range replay[1:] {
		data, ok := strings.CutPrefix(string(b), "event: metrics\ndata: ")
		if !ok || !strings.HasSuffix(data, "\n\n") {
			t.Fatalf("block %d is not a metrics event: %q", i+1, b)
		}
		var row telemetry.SeriesRow
		if err := json.Unmarshal([]byte(data), &row); err != nil {
			t.Fatalf("block %d: %v", i+1, err)
		}
		p, seq := row.Values[0], row.Values[1]
		if p < 0 || int(p) >= publishers {
			t.Fatalf("block %d: bad publisher %d", i+1, p)
		}
		if seq != next[p] {
			t.Fatalf("block %d: publisher %d out of order: seq %d, want %d", i+1, p, seq, next[p])
		}
		next[p]++
	}
	for p, n := range next {
		if n != rowsPerPub {
			t.Errorf("publisher %d: %d rows survived, want %d", p, n, rowsPerPub)
		}
	}

	// Offsets past the end return no blocks.
	if blocks, _ := l.since(totalRows + 5); blocks != nil {
		t.Errorf("since past end = %d blocks, want none", len(blocks))
	}
}

// TestIntrospectAndDeterministicClock covers two test hooks:
// Introspect's job-population/drain snapshot and Config.Now's
// deterministic clock (job timestamps and the duration histogram must
// come from the injected clock, not the wall).
func TestIntrospectAndDeterministicClock(t *testing.T) {
	var mu sync.Mutex
	fake := time.Unix(1000, 0)
	advance := func(d time.Duration) {
		mu.Lock()
		fake = fake.Add(d)
		mu.Unlock()
	}
	cfg := Config{Workers: 1, QueueDepth: 4, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return fake
	}}
	s, ts := newTestServer(t, cfg)

	in := s.Introspect()
	if in.Draining || in.Queued != 0 || in.Running != 0 || in.Terminal != 0 {
		t.Errorf("fresh introspection = %+v", in)
	}
	if in.Goroutines <= 0 {
		t.Errorf("introspection lacks the goroutine count: %+v", in)
	}

	// A job that only terminates when cancelled, so the clock advance
	// deterministically lands between its created and finished stamps.
	id := mustAccept(t, ts.URL, JobSpec{Source: slowSrc(1<<61 + 6)})
	advance(250 * time.Millisecond)
	cancelJob(t, ts.URL, id, http.StatusAccepted)
	v := waitTerminal(t, ts.URL, id, 30*time.Second)
	if v.Status != StatusCancelled {
		t.Fatalf("job resolved %s (%s)", v.Status, v.Error)
	}
	if !v.Created.Equal(time.Unix(1000, 0)) {
		t.Errorf("created = %v, want the injected clock's epoch", v.Created)
	}
	if v.Finished == nil || v.Finished.Sub(v.Created) != 250*time.Millisecond {
		t.Errorf("finished-created = %v, want exactly 250ms of injected time", v.Finished.Sub(v.Created))
	}
	if d := s.Registry().Histogram(MetricJobDuration, nil); d.Count() != 1 || d.Sum() != 250 {
		t.Errorf("duration histogram: %d observations summing to %d ms, want one 250ms observation", d.Count(), d.Sum())
	}

	in = s.Introspect()
	if in.Terminal != 1 || in.Queued != 0 || in.Running != 0 {
		t.Errorf("post-job introspection = %+v, want exactly one terminal job", in)
	}
}
