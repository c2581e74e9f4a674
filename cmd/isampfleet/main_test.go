package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/service"
)

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out, io.Discard, nil); err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if got := strings.TrimSpace(out.String()); got != experiment.BuildID() {
		t.Errorf("-version printed %q, want build ID %q", got, experiment.BuildID())
	}
}

func TestBadConfig(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}, io.Discard, io.Discard, nil); err == nil {
		t.Error("run with unknown flag succeeded, want error")
	}
	if err := run(context.Background(), nil, io.Discard, io.Discard, nil); err == nil {
		t.Error("run with no workers succeeded, want error")
	}
	bad := filepath.Join(t.TempDir(), "fleet.json")
	os.WriteFile(bad, []byte("{"), 0o644) //nolint:errcheck
	if err := run(context.Background(), []string{"-config", bad}, io.Discard, io.Discard, nil); err == nil {
		t.Error("run with malformed config succeeded, want error")
	}
}

// syncBuffer is a bytes.Buffer safe for the coordinator goroutine to
// write while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// smokeWorker is one in-process isampd on a real TCP port, killable
// mid-run by closing its listener and connections.
type smokeWorker struct {
	name string
	url  string
	srv  *service.Server
	hsrv *http.Server
}

func startSmokeWorker(t *testing.T, name string) *smokeWorker {
	t.Helper()
	cache, err := experiment.OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("worker cache: %v", err)
	}
	w := &smokeWorker{name: name}
	w.srv = service.New(service.Config{
		Workers:    2,
		QueueDepth: 32,
		Cache:      cache,
		Obs:        obs.NewState(obs.Options{Mode: obs.ModeSpans}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("worker listen: %v", err)
	}
	w.url = "http://" + ln.Addr().String()
	w.hsrv = &http.Server{Handler: w.srv.Handler()}
	go w.hsrv.Serve(ln) //nolint:errcheck // closed by kill or cleanup
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		w.srv.Shutdown(ctx) //nolint:errcheck
		w.hsrv.Close()
	})
	return w
}

// kill tears the worker's HTTP side down hard: the listener closes and
// every open connection (including the coordinator's SSE streams) drops.
func (w *smokeWorker) kill() { w.hsrv.Close() }

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

// writeFleetConf writes the fleet config file in the format older
// coordinators read, with the retired steal_threshold and weight fields:
// such a file must keep loading, on start and on SIGHUP.
func writeFleetConf(t *testing.T, path string, workers []*smokeWorker) {
	t.Helper()
	type wc struct {
		Name   string  `json:"name"`
		URL    string  `json:"url"`
		Weight float64 `json:"weight"`
	}
	var doc struct {
		Workers        []wc `json:"workers"`
		StealThreshold int  `json:"steal_threshold"`
	}
	doc.StealThreshold = 2
	for _, w := range workers {
		doc.Workers = append(doc.Workers, wc{w.name, w.url, 2})
	}
	data, _ := json.Marshal(doc)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write config: %v", err)
	}
}

type jobDoc struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Worker string          `json:"worker"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "cancelled"
}

// TestFleetSmoke boots the real coordinator binary path (run with flags
// and an old-format config file) over three in-process workers: a mixed
// batch with duplicates completes, a worker killed mid-run has its cell
// requeued and is then dropped from the topology via SIGHUP, no
// submitted job is lost, and a resubmitted cell is a byte-identical CAS
// hit.
func TestFleetSmoke(t *testing.T) {
	w0 := startSmokeWorker(t, "w0")
	w1 := startSmokeWorker(t, "w1")
	w2 := startSmokeWorker(t, "w2")
	workers := []*smokeWorker{w0, w1, w2}
	confPath := filepath.Join(t.TempDir(), "fleet.json")
	writeFleetConf(t, confPath, workers)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := &syncBuffer{}
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-config", confPath,
			"-cache-dir", t.TempDir(), "-health-interval", "25ms",
			"-drain", "10s",
		}, io.Discard, stderr, func(a string) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("coordinator exited early: %v\n%s", err, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("coordinator never came up\n%s", stderr.String())
	}

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
		return doc
	}
	view := func(id string) jobDoc {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET %s: %v", id, err)
		}
		defer resp.Body.Close()
		var v jobDoc
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode %s: %v", id, err)
		}
		return v
	}
	waitJob := func(id, what string, cond func(jobDoc) bool) jobDoc {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		var v jobDoc
		for time.Now().Before(deadline) {
			v = view(id)
			if cond(v) {
				return v
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("job %s never reached %s (status=%s worker=%s err=%q)\n%s",
			id, what, v.Status, v.Worker, v.Error, stderr.String())
		return v
	}
	post := func(spec map[string]any) (id, status string) {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("post: status %d: %s", resp.StatusCode, msg)
		}
		var acc struct{ ID, Status string }
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatalf("decode accept: %v", err)
		}
		return acc.ID, acc.Status
	}

	// Wait for the health handshake: every worker up.
	healthDeadline := time.Now().Add(10 * time.Second)
	for {
		doc := get("/healthz")
		up := 0
		if ws, ok := doc["workers"].(map[string]any); ok {
			for _, v := range ws {
				if m, ok := v.(map[string]any); ok && m["up"] == true {
					up++
				}
			}
		}
		if up == len(workers) {
			break
		}
		if time.Now().After(healthDeadline) {
			t.Fatalf("workers never came up: %v\n%s", doc, stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Mixed batch: distinct cells, an instrumented variant, and
	// duplicates riding the single-flight layer.
	specs := []map[string]any{
		{"source": src(1001)},
		{"source": src(1002)},
		{"source": src(1003)},
		{"source": src(1004), "instrument": []string{"block-count"}},
		{"source": src(1005), "instrument": []string{"edge"}, "variation": "partial"},
		{"source": src(1001)}, // duplicate of [0]
		{"source": src(1003)}, // duplicate of [2]
	}
	var ids []string
	for _, spec := range specs {
		id, _ := post(spec)
		ids = append(ids, id)
	}

	// One long-running cell to kill a worker under.
	longID, _ := post(map[string]any{"source": src(1 << 40)})
	v := waitJob(longID, "running", func(v jobDoc) bool { return v.Status == "running" && v.Worker != "" })
	victim := v.Worker

	// Kill the worker mid-job: the cell must requeue on a survivor.
	for _, w := range workers {
		if w.name == victim {
			w.kill()
		}
	}
	waitJob(longID, "requeued on a survivor", func(v jobDoc) bool {
		return v.Status == "running" && v.Worker != "" && v.Worker != victim
	})

	// SIGHUP reload: drop the dead worker from the topology.
	var live []*smokeWorker
	for _, w := range workers {
		if w.name != victim {
			live = append(live, w)
		}
	}
	writeFleetConf(t, confPath, live)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	reloadDeadline := time.Now().Add(10 * time.Second)
	for {
		doc := get("/healthz")
		names, _ := doc["worker_set"].([]any)
		if len(names) == len(live) {
			break
		}
		if time.Now().After(reloadDeadline) {
			t.Fatalf("reload never removed %s: %v\n%s", victim, doc, stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Zero lost cells: every batch job lands done, duplicates included,
	// with duplicate pairs byte-identical.
	results := make([]string, len(ids))
	for i, id := range ids {
		v := waitJob(id, "done", func(v jobDoc) bool { return terminal(v.Status) })
		if v.Status != "done" {
			t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, v.Result); err != nil {
			t.Fatalf("job %s: bad result: %v", id, err)
		}
		results[i] = buf.String()
	}
	for _, pair := range [][2]int{{0, 5}, {2, 6}} {
		if results[pair[0]] != results[pair[1]] {
			t.Errorf("duplicate results differ:\n%s\n%s", results[pair[0]], results[pair[1]])
		}
	}

	// Resubmission: a CAS hit, terminal in the 202, byte-identical.
	reID, reStatus := post(specs[0])
	if reStatus != "done" {
		t.Errorf("resubmission accepted with status %q, want done (CAS hit)", reStatus)
	}
	rv := view(reID)
	var buf bytes.Buffer
	if err := json.Compact(&buf, rv.Result); err != nil {
		t.Fatalf("resubmission result: %v", err)
	}
	if buf.String() != results[0] {
		t.Errorf("resubmission result differs from original:\n%s\n%s", buf.String(), results[0])
	}

	// Wind down: cancel the long job, then drain the coordinator.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+longID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()
	if v := waitJob(longID, "terminal", func(v jobDoc) bool { return terminal(v.Status) }); v.Status != "cancelled" {
		t.Fatalf("long job: status %s, want cancelled", v.Status)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator exit: %v\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("coordinator never drained\n%s", stderr.String())
	}
}
