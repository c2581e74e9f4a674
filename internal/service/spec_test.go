package service

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"instrsample/internal/scenario"
)

// TestJobSpecValidateEdges covers every rejection branch of the spec
// validator directly (no HTTP), including the hostile corners the
// handler-level test doesn't reach.
func TestJobSpecValidateEdges(t *testing.T) {
	t.Parallel()
	fam := func() *scenario.Family {
		return &scenario.Family{Name: "f", Seed: 3, Count: 2}
	}
	bad := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"empty", JobSpec{}, "one of source"},
		{"source+bench", JobSpec{Source: "x", Bench: "compress"}, "mutually exclusive"},
		{"source+scenario", JobSpec{Source: "x", Scenario: fam()}, "mutually exclusive"},
		{"bench+scenario", JobSpec{Bench: "compress", Scenario: fam()}, "mutually exclusive"},
		{"all three", JobSpec{Source: "x", Bench: "compress", Scenario: fam()}, "mutually exclusive"},
		{"oversized source", JobSpec{Source: strings.Repeat("x", MaxSourceBytes+1)}, "exceeds"},
		{"negative scale", JobSpec{Bench: "compress", Scale: -1}, "scale"},
		{"huge scale", JobSpec{Bench: "compress", Scale: MaxScale + 1}, "scale"},
		{"negative interval", JobSpec{Bench: "compress", Interval: -5}, "interval must not be negative"},
		{"negative random interval", JobSpec{Bench: "compress", Trigger: "random", Interval: -1}, "interval must not be negative"},
		{"faulty-timer", JobSpec{Bench: "compress", Trigger: "faulty-timer"}, "CLI-only"},
		{"negative timeout", JobSpec{Bench: "compress", TimeoutMs: -1}, "timeout_ms"},
		{"unknown bench", JobSpec{Bench: "quake"}, "unknown benchmark"},
		{"unknown instrument", JobSpec{Bench: "compress", Instrument: []string{"heap"}}, "unknown instrumentation"},
		{"unknown variation", JobSpec{Bench: "compress", Variation: "total"}, "unknown variation"},
		{"yieldopt bare", JobSpec{Bench: "compress", Yieldopt: true}, "yieldopt requires"},
		{"unknown trigger", JobSpec{Bench: "compress", Trigger: "sometimes"}, "unknown trigger"},
		{"overlap bare", JobSpec{Bench: "compress", Overlap: true}, "overlap requires"},
		{"invalid family", JobSpec{Scenario: &scenario.Family{Name: "f", Count: 0}}, "count"},
		{"unnamed family", JobSpec{Scenario: &scenario.Family{Count: 1}}, "no name"},
		{"family bias", JobSpec{Scenario: &scenario.Family{Name: "f", Count: 1, LoopBiasPct: 400}}, "loop_bias_pct"},
		{"index negative", JobSpec{Scenario: fam(), ScenarioIndex: -1}, "scenario_index"},
		{"index too large", JobSpec{Scenario: fam(), ScenarioIndex: 2}, "scenario_index"},
		{"index without scenario", JobSpec{Bench: "compress", ScenarioIndex: 1}, "requires scenario"},
	}
	for _, tc := range bad {
		err := tc.spec.Valid()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	good := []JobSpec{
		{Bench: "compress"},
		{Bench: "compress", Trigger: "random", Interval: 0, Jitter: 5},
		{Bench: "compress", Trigger: "timer", Period: 20000},
		{Bench: "resonant", Scale: 0.02},
		{Source: "func main() {\nentry:\n  const x, 7\n  ret x\n}\n"},
		{Scenario: fam()},
		{Scenario: fam(), ScenarioIndex: 1, Variation: "full", Instrument: []string{"call-edge"}, Verify: true},
	}
	for i, spec := range good {
		if err := spec.Valid(); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}
}

// TestScenarioCellKey pins the scenario job's cache identity: the key
// must derive from the family's spec hash and index (not its pointer),
// so identical family specs share cache entries while any index or
// spec change produces a distinct key.
func TestScenarioCellKey(t *testing.T) {
	t.Parallel()
	mk := func(seed uint64, idx int) JobSpec {
		return JobSpec{
			Scenario:      &scenario.Family{Name: "k", Seed: seed, Count: 4},
			ScenarioIndex: idx,
			Variation:     "full",
			Instrument:    []string{"call-edge"},
		}.withDefaults()
	}
	a, b := mk(1, 0), mk(1, 0)
	if a.cellKey() != b.cellKey() {
		t.Fatalf("identical scenario specs got different keys:\n  %s\n  %s", a.cellKey(), b.cellKey())
	}
	if !strings.Contains(a.cellKey(), "scn=") {
		t.Fatalf("scenario key missing scn= namespace: %s", a.cellKey())
	}
	if mk(1, 1).cellKey() == a.cellKey() {
		t.Fatal("different indices share a key")
	}
	if mk(2, 0).cellKey() == a.cellKey() {
		t.Fatal("different family seeds share a key")
	}
	if !strings.Contains(mk(1, 2).describe(), "scenario:k/2") {
		t.Fatalf("describe missing scenario label: %s", mk(1, 2).describe())
	}
}

// TestSubmitHostileJSON feeds the HTTP decoder adversarial bodies:
// unknown fields anywhere (including inside the nested scenario spec),
// type confusion, truncation, and trailing garbage must all 400.
func TestSubmitHostileJSON(t *testing.T) {
	t.Parallel()
	_, h := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"truncated", `{"bench":"compr`},
		{"trailing garbage", `{"bench":"compress"} extra`},
		{"array body", `[{"bench":"compress"}]`},
		{"string body", `"bench"`},
		{"type confusion scale", `{"bench":"compress","scale":"big"}`},
		{"type confusion instrument", `{"bench":"compress","instrument":"call-edge"}`},
		{"unknown nested field", `{"scenario":{"name":"f","seed":1,"count":1,"sneaky":2}}`},
		{"scenario type confusion", `{"scenario":"default"}`},
		{"scenario bad count", `{"scenario":{"name":"f","seed":1,"count":-2}}`},
		{"scenario bad index", `{"scenario":{"name":"f","seed":1,"count":1},"scenario_index":9}`},
		{"negative seed", `{"scenario":{"name":"f","seed":-4,"count":1}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(h.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestScenarioJobRuns submits a scenario job end to end: it must
// complete, carry the family's program result, and a resubmission must
// share the memoized cell.
func TestScenarioJobRuns(t *testing.T) {
	t.Parallel()
	_, h := newTestServer(t, Config{})
	spec := JobSpec{
		Scenario:      &scenario.Family{Name: "svc", Seed: 77, Count: 2, LoopBiasPct: 30, MaxDepth: 4},
		ScenarioIndex: 1,
		Instrument:    []string{"call-edge"},
		Variation:     "full",
		Verify:        true,
	}
	id := mustAccept(t, h.URL, spec)
	v := waitTerminal(t, h.URL, id, 30*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
	}
	if v.Result == nil {
		t.Fatal("done job has no result")
	}
	if v.Result.Stats.Instrs == 0 {
		t.Fatalf("scenario job executed nothing: %+v", v.Result.Stats)
	}

	// Byte-equality with a direct second submission of the same family.
	id2 := mustAccept(t, h.URL, spec)
	v2 := waitTerminal(t, h.URL, id2, 30*time.Second)
	if v2.Status != StatusDone {
		t.Fatalf("job %s: status %s (%s)", id2, v2.Status, v2.Error)
	}
	if v.Result.Stats != v2.Result.Stats || v.Result.Return != v2.Result.Return {
		t.Fatalf("identical scenario jobs differ:\n  %+v\n  %+v", v.Result.Stats, v2.Result.Stats)
	}
}
