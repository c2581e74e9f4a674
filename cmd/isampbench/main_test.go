package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// planHash is the SHA-256 of the first n ops of a workload's plan: equal
// seeds must give equal hashes.
func planHash(w workload, seed int64, n int) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	switch {
	case w.hot:
		set := hotSet(w.benches)
		for i := 0; i < n; i++ {
			enc.Encode(set[hotIndex(seed, i)]) //nolint:errcheck // hash.Hash writes never fail
		}
	case w.http:
		p := newSpecPlan(seed, w.benches)
		for i := 0; i < n; i++ {
			enc.Encode(p.op(i)) //nolint:errcheck // hash.Hash writes never fail
		}
	default:
		p := newConfigPlan(seed, w.benches)
		for i := 0; i < n; i++ {
			enc.Encode(p.op(i)) //nolint:errcheck // hash.Hash writes never fail
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPlanDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := planHash(w, 1, 300), planHash(w, 1, 300)
		if a != b {
			t.Errorf("%s: seed 1 hashed %s then %s", w.name, a, b)
		}
		if c := planHash(w, 2, 300); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence %s", w.name, a)
		}
	}
}

// Every seed runs the same multiset of in-process work per round, so
// metrics compare across seeds.
func TestConfigRoundsArePermutations(t *testing.T) {
	p1, p2 := newConfigPlan(1, loopBenches), newConfigPlan(2, loopBenches)
	n := len(p1.slots)
	count := map[config]int{}
	for i := 0; i < n; i++ {
		count[p1.op(n+i)]++
		count[p2.op(n+i)]--
	}
	for c, k := range count {
		if k != 0 {
			t.Errorf("%s: seeds 1 and 2 differ by %d in round 2", c, k)
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples beyond
		{999, 0.99, 990, false}, // 9 beyond
		{100, 0.5, 50, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// method run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	doc := benchmarkJSON(t)
	if got := strings.Join(sortedKeys(doc), ","); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Errorf("BENCHMARK.json keys = %s", got)
	}
	var workloadsDoc []struct{ Name, Why string }
	var e2e []struct {
		Name, Unit, Better string
		Bound              float64
	}
	var layers []struct{ Name, Unit, Better string }
	for k, v := range map[string]any{"workloads": &workloadsDoc, "end_to_end": &e2e, "per_layer": &layers} {
		if err := json.Unmarshal(doc[k], v); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	if len(workloadsDoc) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the binary has %d", len(workloadsDoc), len(workloads))
	}
	for _, w := range workloadsDoc {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(e2e) > 16 || len(layers) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(e2e), len(layers))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind string, listed []metricDef, defs []metricDef) {
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		seen := map[string]bool{}
		for _, m := range listed {
			if !name.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s metric %q: invalid or repeated name", kind, m.name)
			}
			seen[m.name] = true
			if u, ok := want[m.name]; !ok {
				t.Errorf("%s metric %s is listed but not emitted", kind, m.name)
			} else if u != m.unit {
				t.Errorf("%s metric %s: unit %q listed, %q emitted", kind, m.name, m.unit, u)
			}
		}
		for n := range want {
			if !seen[n] {
				t.Errorf("%s metric %s is emitted but not listed", kind, n)
			}
		}
	}
	var listed []metricDef
	for _, m := range e2e {
		listed = append(listed, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end-to-end", listed, endToEnd)
	listed = nil
	for _, m := range layers {
		listed = append(listed, metricDef{m.Name, m.Unit})
	}
	check("per-layer", listed, perLayer)
}

// liveChildren lists processes whose parent is this test process.
func liveChildren(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc to inspect child processes")
	}
	me := strconv.Itoa(os.Getpid())
	var kids []string
	for _, e := range ents {
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Fields after the parenthesized command: state, ppid, ...
		s := string(stat)
		if f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:]); len(f) > 1 && f[1] == me {
			kids = append(kids, e.Name()+" "+s[:strings.LastIndexByte(s, ')')+1])
		}
	}
	return kids
}

// workDir returns the repository root and the benchmark's usual work
// directory, whose daemon binaries need no relinking when up to date.
func workDir(t *testing.T) (root, work string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root, filepath.Join(root, ".bench_build", "isampbench")
}

// assertClean fails if a run left a daemon running or a scratch
// directory behind.
func assertClean(t *testing.T, work string) {
	t.Helper()
	if kids := liveChildren(t); len(kids) > 0 {
		t.Errorf("child processes still running: %v", kids)
	}
	left, _ := filepath.Glob(filepath.Join(work, "run-*"))
	if len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestQuickSmoke runs every workload in -quick mode with tracing, which
// measures an untraced and a traced window, and requires zero failures,
// every listed metric measured, and nothing left running or on disk.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the daemons")
	}
	root, work := workDir(t)
	for _, w := range workloads {
		o := options{workload: w, seed: 1, seconds: 0.5, warmup: 100 * time.Millisecond,
			trace: true, setups: 1, root: root, work: work, clients: 2}
		res, err := runWorkload(context.Background(), o, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct || res.failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, res.failed, res.attempted, res.firstErr)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if _, ok := res.metrics[d.name]; !ok {
				t.Errorf("%s: %s not measured", w.name, d.name)
			}
		}
		if len(res.metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics measured, %d listed", w.name, len(res.metrics), len(endToEnd)+len(perLayer))
		}
		for _, m := range []string{"ops_per_s", "op_ms_p50", "overlap_pct", "setup_s", "runtime.rss_peak_mb"} {
			if res.metrics[m] <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.name, m, res.metrics[m])
			}
		}
		assertClean(t, work)
	}
}

// An interrupted run stops its daemons, removes its scratch directory
// and prints no result.
func TestInterruptCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the daemons")
	}
	_, work := workDir(t)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(1500*time.Millisecond, cancel)
	var out bytes.Buffer
	code := run(ctx, []string{"-workload", "fleet", "-seconds", "30"}, &out, io.Discard)
	if code == 0 || out.Len() > 0 {
		t.Errorf("interrupted run exited %d and printed %q", code, out.String())
	}
	assertClean(t, work)
}

func TestSummarize(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops float64) string {
		p := filepath.Join(dir, name)
		data, _ := json.Marshal(resultFile{Workload: "kernels", result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"ops_per_s": {ops, "ops/s"}}}})
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(cfg, []byte(`{"end_to_end":[{"name":"ops_per_s","better":"higher","bound":0.1}]}`), 0o644)
	a := []string{write("a1", 100), write("a2", 104), write("a3", 96)}
	var out bytes.Buffer
	if err := summarizeFiles(&out, cfg, append(append(a, "vs"), write("b1", 95), write("b2", 97))); err != nil {
		t.Fatalf("a 4%% drop within a 10%% bound: %v", err)
	}
	if !strings.Contains(out.String(), "100.0000") || !strings.Contains(out.String(), " ok") {
		t.Errorf("summary lacks the median or verdict:\n%s", out.String())
	}
	if err := summarizeFiles(io.Discard, cfg, append(append(a, "vs"), write("c1", 80))); err == nil {
		t.Error("a 20% drop passed a 10% bound")
	}
}
