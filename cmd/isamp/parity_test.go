package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"instrsample/internal/bench"
	"instrsample/internal/experiment"
	"instrsample/internal/service"
	"instrsample/internal/vm"
)

// parityConfig is one run configuration, rendered both as isamp bench
// flags and as the equivalent job spec.
type parityConfig struct {
	bench                    string
	variation, trigger       string
	yieldopt, icache, verify bool
}

const (
	parityScale    = 0.02
	parityInterval = 700
	parityPeriod   = 30000
)

func (c parityConfig) String() string {
	return fmt.Sprintf("%s/%s/%s/yp=%v/ic=%v/verify=%v",
		c.bench, c.variation, c.trigger, c.yieldopt, c.icache, c.verify)
}

func (c parityConfig) args() []string {
	a := []string{
		"-instrument", "call-edge,field-access",
		"-trigger", c.trigger,
		"-interval", fmt.Sprint(parityInterval),
		"-period", fmt.Sprint(parityPeriod),
		"-scale", fmt.Sprint(parityScale),
	}
	if c.variation != "" {
		a = append(a, "-variation", c.variation)
	}
	if c.yieldopt {
		a = append(a, "-yieldopt")
	}
	if c.icache {
		a = append(a, "-icache")
	}
	if c.verify {
		a = append(a, "-verify")
	}
	return a
}

func (c parityConfig) spec() service.JobSpec {
	return service.JobSpec{
		Bench:      c.bench,
		Scale:      parityScale,
		Instrument: []string{"call-edge", "field-access"},
		Variation:  c.variation,
		Yieldopt:   c.yieldopt,
		Trigger:    c.trigger,
		Interval:   parityInterval,
		Period:     parityPeriod,
		ICache:     c.icache,
		Verify:     c.verify,
	}
}

// cliRun runs a configuration through isamp bench's run path.
func cliRun(t *testing.T, c parityConfig) *experiment.CellResult {
	t.Helper()
	o, _, err := parseFlags("bench", c.args())
	if err != nil {
		t.Fatalf("%s: flags: %v", c, err)
	}
	b, err := bench.ByName(c.bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.execute(io.Discard, b.Build(o.scale))
	if err != nil {
		t.Fatalf("%s: isamp: %v", c, err)
	}
	return res
}

// jobRun submits a configuration to the daemon, waits for the end of its
// event stream and returns the finished job's result.
func jobRun(t *testing.T, base string, c parityConfig) *service.JobResult {
	t.Helper()
	body, err := json.Marshal(c.spec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s: submit: status %d, id %q, err %v", c, resp.StatusCode, acc.ID, err)
	}
	// The event stream ends with the job's terminal event.
	resp, err = http.Get(base + "/v1/jobs/" + acc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the end of the stream matters
	resp.Body.Close()
	resp, err = http.Get(base + "/v1/jobs/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Status string
		Error  string
		Result *service.JobResult
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != string(service.StatusDone) || doc.Result == nil {
		t.Fatalf("%s: job %s %s: %s", c, acc.ID, doc.Status, doc.Error)
	}
	return doc.Result
}

// TestCLIMatchesJob is the CLI↔job parity gate: each configuration runs
// through isamp bench's run path and as a job on an in-process daemon,
// and the two must agree on return value, output, every vm.Stats
// counter, code sizes and every profile entry (key and count). The
// matrix is every variation × every trigger a job accepts on a loop
// benchmark and on threaded volano, plus yieldopt, icache and verify
// legs.
func TestCLIMatchesJob(t *testing.T) {
	srv := service.New(service.Config{Workers: 2})
	h := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // a forced drain still stops the workers
		h.Close()
	})

	var configs []parityConfig
	for _, b := range []string{"compress", "volano"} {
		for _, v := range []string{"", "full", "partial", "nodup", "hybrid"} {
			for _, tr := range []string{"counter", "perthread", "timer", "random", "never", "always"} {
				configs = append(configs, parityConfig{bench: b, variation: v, trigger: tr})
			}
		}
		configs = append(configs,
			parityConfig{bench: b, variation: "full", trigger: "counter", yieldopt: true},
			parityConfig{bench: b, variation: "partial", trigger: "counter", icache: true},
			parityConfig{bench: b, variation: "nodup", trigger: "random", verify: true},
			parityConfig{bench: b, variation: "hybrid", trigger: "perthread", yieldopt: true, icache: true, verify: true},
		)
	}

	stats := map[parityConfig]vm.Stats{}
	for _, c := range configs {
		cli, job := cliRun(t, c), jobRun(t, h.URL, c)
		if cli.Return != job.Return || !slices.Equal(cli.Output, job.Output) {
			t.Errorf("%s: return/output %d %v (cli) vs %d %v (job)", c, cli.Return, cli.Output, job.Return, job.Output)
		}
		if cli.Stats != job.Stats {
			t.Errorf("%s: stats differ:\n cli: %+v\n job: %+v", c, cli.Stats, job.Stats)
		}
		if cli.CodeSize != job.CodeSize || cli.CheckingCodeSize != job.CheckingCodeSize ||
			cli.DuplicatedCodeSize != job.DuplicatedCodeSize {
			t.Errorf("%s: code sizes %d/%d/%d (cli) vs %d/%d/%d (job)", c,
				cli.CodeSize, cli.CheckingCodeSize, cli.DuplicatedCodeSize,
				job.CodeSize, job.CheckingCodeSize, job.DuplicatedCodeSize)
		}
		if len(cli.Profiles) != len(job.Profiles) {
			t.Fatalf("%s: %d profiles (cli) vs %d (job)", c, len(cli.Profiles), len(job.Profiles))
		}
		for i, p := range cli.Profiles {
			want, got := p.Entries(), job.Profiles[i].Entries
			if p.Name != job.Profiles[i].Name || len(want) != len(got) {
				t.Errorf("%s: profile %d: %s with %d entries (cli) vs %s with %d (job)",
					c, i, p.Name, len(want), job.Profiles[i].Name, len(got))
				continue
			}
			for k := range want {
				if want[k].Key != got[k].Key || want[k].Count != got[k].Count {
					t.Errorf("%s: %s entry %d: %#x×%d (cli) vs %#x×%d (job)",
						c, p.Name, k, want[k].Key, want[k].Count, got[k].Key, got[k].Count)
				}
			}
		}
		if c.verify && (job.Oracle == nil || job.Oracle.Events != cli.Aux["oracle-events"]) {
			t.Errorf("%s: oracle verdict %+v, cli counted %d events", c, job.Oracle, cli.Aux["oracle-events"])
		}
		stats[c] = cli.Stats
	}

	// The matrix must reach the triggers it names: on threaded volano a
	// per-thread counter samples differently from the global one.
	same := []string{}
	for _, v := range []string{"full", "partial", "nodup", "hybrid"} {
		pc := parityConfig{bench: "volano", variation: v, trigger: "perthread"}
		cc := parityConfig{bench: "volano", variation: v, trigger: "counter"}
		if stats[pc] == stats[cc] {
			same = append(same, v)
		}
	}
	if len(same) > 0 {
		t.Errorf("volano perthread runs identical to counter runs for %s", strings.Join(same, ", "))
	}
}

// TestFlagValidation: the CLI rejects what a job rejects, with the same
// message, before any trigger is constructed; -interval 0 still runs.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		spec service.JobSpec
		want string
	}{
		{[]string{"-interval", "-5"}, service.JobSpec{Interval: -5}, "interval must not be negative"},
		{[]string{"-trigger", "random", "-interval", "-1"}, service.JobSpec{Trigger: "random", Interval: -1}, "interval must not be negative"},
		{[]string{"-trigger", "sometimes"}, service.JobSpec{Trigger: "sometimes"}, `unknown trigger "sometimes"`},
		{[]string{"-variation", "total"}, service.JobSpec{Variation: "total"}, `unknown variation "total"`},
		{[]string{"-yieldopt"}, service.JobSpec{Yieldopt: true}, "yieldopt requires variation"},
	} {
		err := cmdBench(append(tc.args, "-scale", "0.01", "compress"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("isamp bench %v: error %v, want %q", tc.args, err, tc.want)
			continue
		}
		tc.spec.Bench = "compress"
		if jerr := tc.spec.Valid(); jerr == nil || jerr.Error() != err.Error() {
			t.Errorf("isamp bench %v: CLI says %q, job validation says %v", tc.args, err, jerr)
		}
	}
	o, _, err := parseFlags("bench", []string{"-instrument", "call-edge", "-variation", "full", "-interval", "0"})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := bench.ByName("compress")
	res, err := o.execute(io.Discard, b.Build(0.01))
	if err != nil {
		t.Fatalf("-interval 0: %v", err)
	}
	if res.Stats.Checks == 0 || res.Stats.CheckFires != res.Stats.Checks {
		t.Errorf("-interval 0 sampled %d of %d checks, want every one", res.Stats.CheckFires, res.Stats.Checks)
	}
}
