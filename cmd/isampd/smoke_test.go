package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestServiceSmoke is a CI gate `make race` pins by name: the whole
// daemon loop on an ephemeral port, under -race — submit a
// job, stream its events to completion, repeat its configuration at
// another interval and see the program store hit, resubmit its exact
// spec and get a byte-identical result from the result store, cancel a
// long-running job and see it leave nothing in the result store, and
// validate the /metrics exposition format line by line.
func TestServiceSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-j", "2", "-q", "-drain", "10s"},
			io.Discard, io.Discard, func(a string) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon not ready after 10s")
	}

	// 1. Submit a real instrumented job and stream its events end to end.
	const first = `{"bench":"db","scale":0.02,"instrument":["call-edge"],"variation":"full","interval":500,"events_interval":1024}`
	id := smokeSubmit(t, base, first)
	metrics, sawDone := smokeStream(t, base, id)
	if metrics == 0 {
		t.Error("event stream carried no metrics rows")
	}
	if sawDone != "done" {
		t.Errorf("event stream ended with status %q, want done", sawDone)
	}

	// The same configuration at another interval is a new cell but the
	// same compiled program: the engine's program store serves it, one
	// miss then one hit.
	again := smokeSubmit(t, base, `{"bench":"db","scale":0.02,"instrument":["call-edge"],"variation":"full","interval":501,"events_interval":1024}`)
	if _, st := smokeStream(t, base, again); st != "done" {
		t.Errorf("repeated configuration ended with status %q, want done", st)
	}
	if body := smokeMetrics(t, base); !strings.Contains(body, "programs_miss 1\n") || !strings.Contains(body, "programs_hit 1\n") {
		t.Errorf("two jobs of one configuration: want programs_miss 1 and programs_hit 1 in /metrics:\n%s", body)
	}

	// The first job's exact spec again is the same cell: the result store
	// serves it, and its result document is the first job's, byte for
	// byte.
	twin := smokeSubmit(t, base, first)
	if _, st := smokeStream(t, base, twin); st != "done" {
		t.Errorf("resubmitted job ended with status %q, want done", st)
	}
	if a, b := smokeResult(t, base, id), smokeResult(t, base, twin); len(a) == 0 || string(a) != string(b) {
		t.Errorf("resubmitted job's result differs from the first job's:\n%s\n%s", a, b)
	}
	body := smokeMetrics(t, base)
	if smokeMetric(t, body, "cells_memo_hit_service") != 1 || smokeMetric(t, body, "cells_memo_evict") != 0 {
		t.Errorf("want cells_memo_hit_service 1 and cells_memo_evict 0 in /metrics:\n%s", body)
	}
	retained := smokeMetric(t, body, "cells_memo_retained_bytes")
	if retained <= 0 {
		t.Errorf("cells_memo_retained_bytes %d, want the two results' estimate", retained)
	}

	// 2. Submit an effectively endless job and cancel it over HTTP; it
	// must resolve as cancelled promptly (the VM stops at the next
	// observation point).
	slow := smokeSubmit(t, base, `{"source":"func main() {\nentry:\n  const i, 0\n  const n, 2305843009213693952\n  const one, 1\nloop:\n  cmplt c, i, n\n  br c, body, done\nbody:\n  add i, i, one\n  jmp loop\ndone:\n  ret i\n}\n"}`)
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+slow, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := smokeStatus(t, base, slow)
		if st == "cancelled" {
			break
		}
		if st == "done" || st == "failed" {
			t.Fatalf("long job resolved %s, want cancelled", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("long job still %s 15s after cancel", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// 3. Validate the metrics endpoint: exposition content type, every
	// line well-formed, and the daemon counters present with the values
	// this exact scenario produced. The cancelled job's cell failed, so
	// the result store holds what it held before.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body = string(raw)
	if got := smokeMetric(t, body, "cells_memo_retained_bytes"); got != retained {
		t.Errorf("cells_memo_retained_bytes %d after the cancelled job, want %d", got, retained)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content-type %q, want text exposition 0.0.4", ct)
	}
	typeLine := regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleLine := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9]+$`)
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !typeLine.MatchString(line) && !sampleLine.MatchString(line) {
			t.Errorf("metrics line violates exposition format: %q", line)
		}
	}
	for _, want := range []string{"jobs_accepted 4", "jobs_completed 3", "jobs_cancelled 1", "queue_depth 0"} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// 4. SIGTERM-equivalent drain.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not drain within 20s")
	}
}

func smokeSubmit(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var m struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, m.Error)
	}
	return m.ID
}

// smokeMetrics returns the /metrics body.
func smokeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return string(body)
}

// smokeMetric returns one sample's value from a /metrics body.
func smokeMetric(t *testing.T, body, name string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (-?[0-9]+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("/metrics has no %s:\n%s", name, body)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// smokeResult returns a job document's result, as the daemon encoded it.
func smokeResult(t *testing.T, base, id string) json.RawMessage {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var v struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return v.Result
}

func smokeStatus(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var v struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return v.Status
}

// smokeStream consumes the SSE stream until the done event, returning
// the metrics-event count and the done status.
func smokeStream(t *testing.T, base, id string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s/events", base, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	metrics, event := 0, ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "metrics" {
				metrics++
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			var d struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				t.Fatalf("bad done payload %q: %v", line, err)
			}
			return metrics, d.Status
		}
	}
	t.Fatalf("stream ended without done (err %v)", sc.Err())
	return 0, ""
}
