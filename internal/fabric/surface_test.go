package fabric

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/service"
)

// role is one way to serve the job surface: a single isampd daemon, or
// the isampfleet coordinator — the same service.Server over the fleet
// executor.
type role struct {
	name     string
	f        *fleet // front door: post, view and wait helpers
	srv      *service.Server
	storeDir func() string // the directory behind /v1/cas
}

// bothRoles starts one daemon and one single-worker fleet.
func bothRoles(t *testing.T) []role {
	t.Helper()
	solo := newTestWorker(t, "solo")
	fl := newFleet(t, 1, nil)
	return []role{
		{"isampd", &fleet{t: t, front: solo.hs}, solo.srv,
			func() string { return solo.srv.Config().Cache.Dir() }},
		{"isampfleet", fl, fl.srv,
			func() string { return fl.c.Cache().Dir() }},
	}
}

// do issues one request against a role's front door.
func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read: %v", method, url, err)
	}
	return resp.StatusCode, data
}

// TestBothRolesServeDaemonSurface runs one route table against isampd
// and against the coordinator: every job, event, trace, obs, CAS,
// health and metrics route answers as the daemon's own handler does, so
// no route falls through to the mux's 404 or 405.
func TestBothRolesServeDaemonSurface(t *testing.T) {
	for _, r := range bothRoles(t) {
		t.Run(r.name, func(t *testing.T) {
			spec := quickSpec(4242)
			id, _ := r.f.post(spec)
			if v := r.f.waitTerminal(id); v.Status != service.StatusDone {
				t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
			}
			addr := experiment.CASAddr(experiment.BuildID(), spec.CellKey())
			code, entry := do(t, http.MethodGet, r.f.front.URL+"/v1/cas/"+addr, nil)
			if code != http.StatusOK {
				t.Fatalf("GET /v1/cas: status %d, want the finished cell's entry", code)
			}
			submit, err := json.Marshal(quickSpec(4243))
			if err != nil {
				t.Fatal(err)
			}
			routes := []struct {
				method, path string
				body         []byte
				want         int
			}{
				{http.MethodPost, "/v1/jobs", submit, http.StatusAccepted},
				{http.MethodGet, "/v1/jobs/" + id, nil, http.StatusOK},
				{http.MethodGet, "/v1/jobs/" + id + "/events", nil, http.StatusOK},
				{http.MethodGet, "/v1/jobs/" + id + "/trace", nil, http.StatusOK},
				{http.MethodDelete, "/v1/jobs/" + id, nil, http.StatusConflict},
				{http.MethodGet, "/v1/obs", nil, http.StatusOK},
				{http.MethodPut, "/v1/obs", []byte(`{"mode":"spans"}`), http.StatusOK},
				{http.MethodGet, "/v1/cas/" + addr, nil, http.StatusOK},
				{http.MethodPut, "/v1/cas/" + addr, entry, http.StatusOK},
				{http.MethodGet, "/healthz", nil, http.StatusOK},
				{http.MethodGet, "/metrics", nil, http.StatusOK},
			}
			for _, rt := range routes {
				if code, body := do(t, rt.method, r.f.front.URL+rt.path, rt.body); code != rt.want {
					t.Errorf("%s %s: status %d (%.80s), want %d", rt.method, rt.path, code, body, rt.want)
				}
			}
		})
	}
}

// TestBothRolesCASPut pins the one CAS PUT handler on both roles: a
// verified payload is stored (200), a payload that does not hash to its
// address is an integrity reject (422, counted under cas.put.rejected),
// and a store that cannot be written is a server error (500) that
// counts no reject.
func TestBothRolesCASPut(t *testing.T) {
	src, err := experiment.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entry := func(key string) (addr string, data []byte) {
		src.Store(key, &experiment.CellResult{Return: 7, Work: 3})
		addr = src.Addr(key)
		data, _ = src.GetAddr(addr)
		return addr, data
	}
	for _, r := range bothRoles(t) {
		t.Run(r.name, func(t *testing.T) {
			rejected := func() uint64 { return r.srv.Registry().Counter(service.MetricCASRejected).Value() }
			put := func(addr string, body []byte) int {
				code, _ := do(t, http.MethodPut, r.f.front.URL+"/v1/cas/"+addr, body)
				return code
			}
			addr, data := entry("cell put-" + r.name)
			if code := put(addr, data); code != http.StatusOK {
				t.Fatalf("valid PUT: status %d, want 200", code)
			}
			forged := bytes.Replace(data, []byte("put-"+r.name), []byte("put-forged"), 1)
			if code := put(addr, forged); code != http.StatusUnprocessableEntity {
				t.Fatalf("forged PUT: status %d, want 422", code)
			}
			if got := rejected(); got != 1 {
				t.Fatalf("cas.put.rejected = %d after a forged PUT, want 1", got)
			}
			if err := os.RemoveAll(r.storeDir()); err != nil {
				t.Fatal(err)
			}
			addr, data = entry("cell store-failure-" + r.name)
			if code := put(addr, data); code != http.StatusInternalServerError {
				t.Fatalf("PUT into a removed store: status %d, want 500", code)
			}
			if got := rejected(); got != 1 {
				t.Fatalf("cas.put.rejected = %d after a store failure, want 1 (a store failure is no integrity reject)", got)
			}
		})
	}
}

// TestFleetTraceAndLedger: a fleet job is explainable from the
// coordinator's own output — its /trace is Chrome trace-event JSON with
// the dispatch hop as a span, and its ledger rows sum exactly to
// total_ns — and PUT /v1/obs turns that off for the jobs that follow.
func TestFleetTraceAndLedger(t *testing.T) {
	f := newFleet(t, 1, nil)
	id, _ := f.post(quickSpec(5151))
	v := f.waitTerminal(id)
	if v.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
	}
	if v.Ledger == nil || len(v.Ledger.Rows) == 0 {
		t.Fatalf("job %s carries no ledger", id)
	}
	if sum := v.Ledger.Sum(); sum != v.Ledger.TotalNs {
		t.Errorf("ledger rows sum to %d ns, total_ns is %d", sum, v.Ledger.TotalNs)
	}
	if _, ok := v.Ledger.Row(obs.StageDispatch); !ok {
		t.Errorf("ledger has no dispatch row: %+v", v.Ledger.Rows)
	}

	code, body := do(t, http.MethodGet, f.front.URL+"/v1/jobs/"+id+"/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d (%s)", code, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not trace-event JSON: %v", err)
	}
	dispatch := false
	for _, e := range doc.TraceEvents {
		if e.Name == obs.StageDispatch.String() && e.Ph == "X" {
			dispatch = true
		}
	}
	if !dispatch {
		t.Errorf("trace has no dispatch span: %s", body)
	}

	code, body = do(t, http.MethodPut, f.front.URL+"/v1/obs", []byte(`{"mode":"off"}`))
	if code != http.StatusOK || !strings.Contains(string(body), `"mode": "off"`) {
		t.Fatalf("PUT /v1/obs: status %d (%s), want mode off", code, body)
	}
	id2, _ := f.post(quickSpec(5152))
	v2 := f.waitTerminal(id2)
	if v2.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", id2, v2.Status, v2.Error)
	}
	if v2.Ledger != nil {
		t.Errorf("job %s accepted with obs off carries a ledger: %+v", id2, v2.Ledger)
	}
	if code, _ := do(t, http.MethodGet, f.front.URL+"/v1/jobs/"+id2+"/trace", nil); code != http.StatusNotFound {
		t.Errorf("trace of a job accepted with obs off: status %d, want 404", code)
	}
}
