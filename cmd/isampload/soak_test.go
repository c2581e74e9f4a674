package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"instrsample/internal/load"
)

// smokeMix is the CI soak profile: the default mix narrowed to small
// scales so a few seconds of wall time still drives hundreds of jobs
// through every traffic class, on shared hosts, under the race
// detector.
func smokeMix(t *testing.T, seed int64, ops int) (load.Mix, string) {
	t.Helper()
	mix := load.DefaultMix(seed, ops)
	mix.ScaleMax = 0.02
	path := filepath.Join(t.TempDir(), "mix.json")
	b, err := json.Marshal(mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return mix, path
}

// TestSoakSmoke is the ci gate: a short seeded soak against a
// self-hosted daemon on an ephemeral port, with the regression gates
// enforced — relaxed timing ceilings for shared CI hosts, but the exact
// gates (zero failed jobs, zero leaked goroutines, zero transport
// errors) at full strength. The small self-queue behind a single worker
// forces the 429-retry path to actually run; with one worker per core,
// as the daemon defaults to, whether the queue ever filled depended on
// the host.
func TestSoakSmoke(t *testing.T) {
	mix, mixPath := smokeMix(t, 1, 600)
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := run(ctx, []string{
		"-mix", mixPath,
		"-duration", "2500ms",
		"-clients", "6",
		"-self-j", "1",
		"-self-queue", "4",
		"-o", out,
		"-min-throughput", "3",
		"-max-p99-ms", "30000",
		"-max-cancel-p99-ms", "10000",
		"-max-queue-wait-p99-ms", "30000",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("soak failed: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		PR        int               `json:"pr"`
		PlanHash  string            `json:"plan_hash"`
		BudgetMet bool              `json:"budget_met"`
		Gates     []load.GateResult `json:"gates"`
		Result    struct {
			Counts      load.Counts `json:"counts"`
			LedgerOps   int64       `json:"ledger_ops"`
			QueueWaitUs struct {
				Count uint64 `json:"count"`
			} `json:"queue_wait_us"`
		} `json:"result"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if !rep.BudgetMet {
		t.Errorf("report says budget_met=false despite run() success\nstdout:\n%s", stdout.String())
	}

	// End-to-end determinism receipt: the report's plan hash must match
	// an independent expansion of the same mix file.
	plan, err := load.Plan(mix)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanHash != load.PlanHash(plan) {
		t.Errorf("report plan_hash %s != recomputed %s", rep.PlanHash, load.PlanHash(plan))
	}

	// The smoke must have exercised the interesting traffic classes, not
	// merely submitted trivial jobs.
	c := rep.Result.Counts
	if c.Submitted == 0 {
		t.Fatal("no jobs submitted")
	}
	if c.CancelRequested+c.CancelRaces == 0 {
		t.Error("no cancel ops ran")
	}
	if c.SSEStreams == 0 {
		t.Error("no SSE subscribers ran")
	}
	if c.Rejected429 == 0 {
		t.Error("queue depth 4 with 6 clients produced no 429 backpressure")
	}

	// The self-hosted daemon runs at -self-obs spans by default, so the
	// report carries server-side attribution ledgers and the queue-wait
	// gate must have engaged (not passed vacuously).
	if rep.Result.LedgerOps == 0 {
		t.Error("no attribution ledgers captured from the obs-enabled daemon")
	}
	if rep.Result.QueueWaitUs.Count == 0 {
		t.Error("ledgers captured but no queue-wait observations")
	}
	gated := false
	for _, g := range rep.Gates {
		if g.Name == "queue_wait_p99_ms" {
			gated = true
		}
	}
	if !gated {
		t.Error("queue_wait_p99_ms gate did not engage")
	}
	t.Logf("smoke: %+v, ledgers %d", c, rep.Result.LedgerOps)
}

// TestPrintPlanDeterministic checks the CLI plan path: two -print-plan
// invocations of the same mix file emit identical bytes.
func TestPrintPlanDeterministic(t *testing.T) {
	_, mixPath := smokeMix(t, 9, 40)
	outs := make([]string, 2)
	for i := range outs {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), []string{"-mix", mixPath, "-print-plan"}, &stdout, &stderr); err != nil {
			t.Fatalf("print-plan: %v\n%s", err, stderr.String())
		}
		outs[i] = stdout.String()
	}
	if outs[0] != outs[1] {
		t.Error("-print-plan output differs between identical invocations")
	}
	if len(outs[0]) == 0 {
		t.Error("-print-plan emitted nothing")
	}
}

// TestGateFailureExit checks that a violated gate surfaces as errGates —
// the CLI's non-zero exit — while the report is still written.
func TestGateFailureExit(t *testing.T) {
	_, mixPath := smokeMix(t, 2, 80)
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := run(ctx, []string{
		"-mix", mixPath,
		"-duration", "500ms",
		"-o", out,
		"-min-throughput", "1e9", // unreachable floor
	}, &stdout, &stderr)
	if err != errGates {
		t.Fatalf("want errGates, got %v\nstdout:\n%s", err, stdout.String())
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("report not written on gate failure: %v", err)
	}
}
