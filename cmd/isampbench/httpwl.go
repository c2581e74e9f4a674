package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"instrsample/internal/profile"
)

// stack is one started set of daemons: front is where jobs go.
type stack struct {
	front   *daemon
	workers []*daemon // fleet workers; empty for a single isampd
}

func (s *stack) all() []*daemon { return append([]*daemon{s.front}, s.workers...) }

// startStack starts the workload's daemons at the given -obs mode.
// service and service-hot run isampd at its CLI defaults (-j = nproc,
// no disk cache); fleet runs isampfleet -slots 1 over two isampd -j 1
// workers, each with its own cache directory.
func startStack(ctx context.Context, kids *children, w workload, bin, dir, obsMode string) (*stack, error) {
	healthy := func(doc map[string]any) bool { return doc["status"] == "ok" }
	common := []string{"-q", "-drain", "2s", "-obs", obsMode}
	if !w.fleet {
		d, err := kids.start(ctx, dir, "isampd", filepath.Join(bin, "isampd"), healthy, common...)
		if err != nil {
			return nil, err
		}
		return &stack{front: d}, nil
	}
	st := &stack{}
	fleetArgs := append([]string{"-slots", "1"}, common...)
	for k := 0; k < 2; k++ {
		cache, err := os.MkdirTemp(dir, "cache-")
		if err != nil {
			return nil, err
		}
		d, err := kids.start(ctx, dir, fmt.Sprintf("isampd-w%d", k), filepath.Join(bin, "isampd"), healthy,
			append([]string{"-j", "1", "-cache-dir", cache}, common...)...)
		if err != nil {
			return nil, err
		}
		st.workers = append(st.workers, d)
		fleetArgs = append(fleetArgs, "-worker", d.url)
	}
	// The coordinator is ready once its health probes see every worker.
	allUp := func(doc map[string]any) bool {
		ws, _ := doc["workers"].(map[string]any)
		for _, v := range ws {
			if wh, _ := v.(map[string]any); wh["up"] != true {
				return false
			}
		}
		return healthy(doc) && len(ws) == len(st.workers)
	}
	d, err := kids.start(ctx, dir, "isampfleet", filepath.Join(bin, "isampfleet"), allUp, fleetArgs...)
	if err != nil {
		return nil, err
	}
	st.front = d
	return st, nil
}

// httpConfigs are the reference runs the HTTP workloads check against:
// each benchmark uninstrumented (its return value and output) and
// exhaustively instrumented (the profiles sampled jobs are scored on).
func httpConfigs(benches []string) []config {
	var out []config
	for _, b := range benches {
		out = append(out, config{Bench: b, Variation: "base"}, config{Bench: b, Variation: "exhaustive"})
	}
	return out
}

// jobView is the part of the GET /v1/jobs/{id} document the benchmark
// reads; isampd and isampfleet serve the same shape.
type jobView struct {
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Result   json.RawMessage `json:"result"`
	Ledger   *struct {
		Rows []struct {
			Stage string `json:"stage"`
			Ns    int64  `json:"ns"`
		} `json:"rows"`
		TotalNs int64 `json:"total_ns"`
	} `json:"ledger"`
}

// stageMs returns the ledger's milliseconds per stage.
func (v *jobView) stageMs() map[string]float64 {
	if v.Ledger == nil {
		return nil
	}
	m := map[string]float64{}
	for _, r := range v.Ledger.Rows {
		m[r.Stage] += float64(r.Ns) / 1e6
	}
	return m
}

// jobResult is the part of a job's result the benchmark checks.
type jobResult struct {
	Return int64   `json:"return"`
	Output []int64 `json:"output"`
	Stats  struct {
		Cycles, Instrs, Checks, CheckFires, DupEntries uint64
	} `json:"stats"`
	Profiles           []json.RawMessage `json:"profiles"`
	CodeSize           int               `json:"code_size"`
	DuplicatedCodeSize int               `json:"duplicated_code_size"`
	Oracle             *struct {
		OK bool `json:"ok"`
	} `json:"oracle"`
}

// profileDump is one profile of a job's result.
type profileDump struct {
	Name    string `json:"name"`
	Entries []struct {
		Key, Count uint64
	} `json:"entries"`
}

// checked is what verifying one job's result yields.
type checked struct {
	res     jobResult
	overlap float64 // mean over the job's profiles, vs exhaustive
}

// checkResult verifies a job's result against the reference runs: the
// framework must not change the program's return value or output, and
// a verified job's oracle must pass. With score set it also scores each
// profile against the exhaustive reference.
func checkResult(spec jobSpec, raw []byte, refs *references, score bool) (*checked, error) {
	var c checked
	if err := json.Unmarshal(raw, &c.res); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	base := refs.prints[config{Bench: spec.Bench, Variation: "base"}]
	switch {
	case c.res.Return != base.ret:
		return nil, fmt.Errorf("%s: return %d, reference %d", spec.Bench, c.res.Return, base.ret)
	case hashOutput(c.res.Output) != base.output:
		return nil, fmt.Errorf("%s: output differs from the reference dispatcher's", spec.Bench)
	case spec.Verify && (c.res.Oracle == nil || !c.res.Oracle.OK):
		return nil, fmt.Errorf("%s: invariant oracle verdict missing or failed", spec.Bench)
	case len(c.res.Profiles) != len(spec.Instrument):
		return nil, fmt.Errorf("%s: %d profiles for %d instrumentations", spec.Bench, len(c.res.Profiles), len(spec.Instrument))
	}
	if !score {
		return &c, nil
	}
	for _, data := range c.res.Profiles {
		var pd profileDump
		if err := json.Unmarshal(data, &pd); err != nil {
			return nil, fmt.Errorf("decode profile: %w", err)
		}
		var ref *profile.Profile
		for _, p := range refs.exhaustive[spec.Bench] {
			if p.Name == pd.Name {
				ref = p
			}
		}
		if ref == nil {
			return nil, fmt.Errorf("%s: unexpected profile %q", spec.Bench, pd.Name)
		}
		p := profile.New(pd.Name)
		for _, e := range pd.Entries {
			p.Add(e.Key, e.Count)
		}
		c.overlap += profile.Overlap(p, ref) / float64(len(c.res.Profiles))
	}
	return &c, nil
}

// httpRec is one HTTP op's record.
type httpRec struct {
	submitMs, deliveryMs, viewMs, queueMs, execMs float64
	retries, sseRows                              int
	res                                           *jobResult
	ledger                                        map[string]float64
	ledgerTotalMs                                 float64
}

// submit runs one op against the front daemon: POST /v1/jobs, read the
// job's event stream until its done event, then GET the job view.
func submit(ctx context.Context, url string, spec jobSpec) (time.Duration, *httpRec, *jobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, nil, nil, err
	}
	rec := &httpRec{}
	t0 := time.Now()
	var id string
	for id == "" {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return 0, nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, nil, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var acc struct{ ID string }
			if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
				return 0, nil, nil, fmt.Errorf("POST /v1/jobs: bad accept body %q", data)
			}
			id = acc.ID
		case http.StatusTooManyRequests:
			// Refused under load: back off briefly and resubmit; the
			// op's latency keeps the wait.
			rec.retries++
			select {
			case <-time.After(10 * time.Millisecond):
			case <-ctx.Done():
				return 0, nil, nil, ctx.Err()
			}
		default:
			return 0, nil, nil, fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, data)
		}
	}
	t1 := time.Now()
	rows, err := awaitDone(ctx, url+"/v1/jobs/"+id+"/events")
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s events: %w", id, err)
	}
	t2 := time.Now()
	var v jobView
	if err := getJSON(ctx, url+"/v1/jobs/"+id, &v); err != nil {
		return 0, nil, nil, err
	}
	t3 := time.Now()
	if v.Status != "done" {
		return 0, nil, nil, fmt.Errorf("%s: status %s: %s", id, v.Status, v.Error)
	}
	if v.Started == nil || v.Finished == nil {
		return 0, nil, nil, fmt.Errorf("%s: done without start and finish times", id)
	}
	rec.submitMs = ms(t1.Sub(t0))
	rec.deliveryMs = ms(t2.Sub(*v.Finished))
	rec.viewMs = ms(t3.Sub(t2))
	rec.queueMs = ms(v.Started.Sub(v.Created))
	rec.execMs = ms(v.Finished.Sub(*v.Started))
	rec.sseRows = rows
	rec.ledger = v.stageMs()
	if v.Ledger != nil {
		rec.ledgerTotalMs = float64(v.Ledger.TotalNs) / 1e6
	}
	return t3.Sub(t0), rec, &v, nil
}

// awaitDone reads a job's Server-Sent-Events stream until the done
// event and returns the number of metrics rows it carried.
func awaitDone(ctx context.Context, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	rows, done := 0, false
	for sc.Scan() {
		switch sc.Text() {
		case "event: metrics":
			rows++
		case "event: done":
			// The stream ends after the done event; reading it to the end
			// lets the client reuse the connection.
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !done {
		return 0, fmt.Errorf("stream ended without a done event")
	}
	return rows, nil
}

// scrape reads a daemon's /metrics counters and gauges.
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = f
		}
	}
	return m, sc.Err()
}

// scrapeSum adds up the /metrics of several daemons.
func scrapeSum(ctx context.Context, ds []*daemon) (map[string]float64, error) {
	total := map[string]float64{}
	for _, d := range ds {
		m, err := scrape(ctx, d.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// golden is a service-hot working-set spec's warmed result: every
// repeat of the spec must return these bytes.
type golden struct {
	raw []byte
	chk *checked
}

// httpBench is one HTTP workload run's state.
type httpBench struct {
	o      options
	kids   *children
	bin    string
	dir    string
	refs   *references
	golden []golden
	plan   specPlan
	hot    []jobSpec

	mu sync.Mutex
	// overlaps are the scored ops' profile overlaps: the plan's first
	// round, or service-hot's working set.
	overlaps []float64
}

// setup starts the daemons, builds the reference fingerprints and, for
// service-hot, warms the working set.
func (h *httpBench) setup(ctx context.Context, obsMode string) (*stack, error) {
	st, err := startStack(ctx, h.kids, h.o.workload, h.bin, h.dir, obsMode)
	if err != nil {
		return nil, err
	}
	refs, err := buildReferences(ctx, httpConfigs(h.o.workload.benches), h.o.clients)
	if err != nil {
		return nil, err
	}
	h.refs = refs
	if !h.o.workload.hot {
		return st, nil
	}
	h.golden = nil
	for _, spec := range h.hot {
		_, _, v, err := submit(ctx, st.front.url, spec)
		if err != nil {
			return nil, fmt.Errorf("warming the working set: %w", err)
		}
		c, err := checkResult(spec, v.Result, refs, true)
		if err != nil {
			return nil, fmt.Errorf("warming the working set: %w", err)
		}
		h.golden = append(h.golden, golden{v.Result, c})
	}
	return st, nil
}

// op returns the closed-loop op against a stack.
func (h *httpBench) op(ctx context.Context, st *stack) opFunc[*httpRec] {
	return func(i int) (time.Duration, *httpRec, error) {
		spec, k := h.plan.op(i), 0
		if h.o.workload.hot {
			k = hotIndex(h.o.seed, i)
			spec = h.hot[k]
		}
		lat, rec, v, err := submit(ctx, st.front.url, spec)
		if err != nil {
			return 0, nil, err
		}
		var c *checked
		if h.o.workload.hot {
			if !bytes.Equal(v.Result, h.golden[k].raw) {
				return 0, nil, fmt.Errorf("working-set spec %d: result differs from its first run's", k)
			}
			c = h.golden[k].chk
		} else {
			score := i < h.plan.size()
			if c, err = checkResult(spec, v.Result, h.refs, score); err != nil {
				return 0, nil, err
			}
			if score {
				h.mu.Lock()
				h.overlaps = append(h.overlaps, c.overlap)
				h.mu.Unlock()
			}
		}
		rec.res = &c.res
		return lat, rec, nil
	}
}

// runHTTP measures the service, service-hot or fleet workload.
func runHTTP(ctx context.Context, o options, stderr io.Writer) (res *outcome, err error) {
	w := o.workload
	h := &httpBench{o: o, kids: &children{}, bin: filepath.Join(o.work, "bin"),
		plan: newSpecPlan(o.seed, w.benches), hot: hotSet(w.benches)}
	if err := os.MkdirAll(h.bin, 0o755); err != nil {
		return nil, err
	}
	if err := buildDaemons(ctx, o.root, h.bin); err != nil {
		return nil, err
	}
	if h.dir, err = os.MkdirTemp(o.work, "run-"); err != nil {
		return nil, err
	}
	defer func() {
		h.kids.stopAll()
		if rerr := os.RemoveAll(h.dir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	var st *stack
	var setups, rawSetups []float64
	for k := 0; k < o.setups; k++ {
		if st != nil {
			for _, d := range st.all() {
				h.kids.stop(d)
			}
		}
		raw, norm, err := setupSeconds(o.speed, func() (err error) {
			st, err = h.setup(ctx, "off")
			return err
		})
		if err != nil {
			return nil, err
		}
		setups, rawSetups = append(setups, norm), append(rawSetups, raw)
	}
	untracedDur, tracedDur := o.windowDurations()
	fmt.Fprintf(stderr, "isampbench: %s seed %d: set-up %.2fs, measuring %v\n", w.name, o.seed, median(setups), untracedDur+tracedDur)
	var next atomic.Int64
	untraced := closedLoop(ctx, o.clients, &next, o.warmup, untracedDur, h.op(ctx, st))
	res = &outcome{metrics: map[string]float64{"setup_s": median(setups)},
		raw: map[string]float64{"setup_s": median(rawSetups)}}
	endToEndMetrics(res, &untraced, o.speed)
	// overlap_pct scores a fixed set of specs, so it does not depend on
	// how many ops a run completes.
	if w.hot {
		for _, g := range h.golden {
			h.overlaps = append(h.overlaps, g.chk.overlap)
		}
	}
	res.metrics["overlap_pct"] = sum(h.overlaps) / float64(max(len(h.overlaps), 1))
	rss := 0.0
	for _, d := range st.all() {
		rss += h.kids.stop(d)
	}
	res.metrics["runtime.rss_peak_mb"] = rss

	var traced *window[*httpRec]
	if o.trace {
		// Per-layer numbers come from daemons restarted with span chains
		// and attribution ledgers on (-obs spans).
		if st, err = h.setup(ctx, "spans"); err != nil {
			return nil, err
		}
		before, err := scrapeSum(ctx, st.all())
		if err != nil {
			return nil, err
		}
		rt0 := readGoRuntime()
		tw := closedLoop(ctx, o.clients, &next, o.warmup, tracedDur, h.op(ctx, st))
		runtimeMetrics(res.metrics, rt0, readGoRuntime(), len(tw.samples))
		after, err := scrapeSum(ctx, st.all())
		if err != nil {
			return nil, err
		}
		var workerJobs []map[string]float64
		if w.fleet {
			if workerJobs, err = workerLedgers(ctx, st.workers, tw.from, tw.to); err != nil {
				return nil, err
			}
		}
		httpLayers(res.metrics, w, tw.samples, workerJobs, before, after)
		traced = &tw
	}
	finish(res, &untraced, traced, o.speed)
	return res, nil
}

// workerLedgers collects the stage times of every fleet-worker job
// created in [from, to] from the workers' own job views.
func workerLedgers(ctx context.Context, workers []*daemon, from, to time.Time) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, d := range workers {
		m, err := scrape(ctx, d.url)
		if err != nil {
			return nil, err
		}
		for id := 1; id <= int(m["jobs_accepted"]); id++ {
			var v jobView
			if err := getJSON(ctx, fmt.Sprintf("%s/v1/jobs/job-%06d", d.url, id), &v); err != nil {
				continue // evicted from the worker's retained set
			}
			if v.Created.Before(from) || v.Created.After(to) || v.Ledger == nil {
				continue
			}
			out = append(out, v.stageMs())
		}
	}
	return out, nil
}

// httpLayers sets the per-layer metrics of the HTTP workloads from
// traced ops, the fleet workers' ledgers and the daemons' counters over
// the window.
func httpLayers(m map[string]float64, w workload, samples []sample[*httpRec], workerJobs []map[string]float64, before, after map[string]float64) {
	n := len(samples)
	if n == 0 {
		return
	}
	var opMs, submitMs, deliveryMs, viewMs, queueMs, execMs []float64
	var retries, rows, code, dup, clientMs, ledgerMs float64
	var executed int
	var instrs, cycles, checks, fires, dupEntries float64
	stage := map[string][]float64{}
	for _, s := range samples {
		r := s.rec
		opMs = append(opMs, s.ms)
		submitMs = append(submitMs, r.submitMs)
		deliveryMs = append(deliveryMs, r.deliveryMs)
		viewMs = append(viewMs, r.viewMs)
		queueMs = append(queueMs, r.queueMs)
		execMs = append(execMs, r.execMs)
		retries += float64(r.retries)
		rows += float64(r.sseRows)
		for st, v := range r.ledger {
			stage[st] = append(stage[st], v)
		}
		if r.ledger != nil {
			clientMs += s.ms
			ledgerMs += r.ledgerTotalMs
		}
		// Counters describe work done for this op: a job answered from
		// the memo table compiled nothing and ran no VM.
		if _, ran := r.ledger["vm-run"]; ran || w.fleet {
			executed++
			code += float64(r.res.CodeSize)
			dup += float64(r.res.DuplicatedCodeSize)
			instrs += float64(r.res.Stats.Instrs)
			cycles += float64(r.res.Stats.Cycles)
			checks += float64(r.res.Stats.Checks)
			fires += float64(r.res.Stats.CheckFires)
			dupEntries += float64(r.res.Stats.DupEntries)
		}
	}
	meanOp := sum(opMs) / float64(n)
	// share is a layer's mean time per op over the mean op latency.
	share := func(total float64, per int) float64 { return pct(total/float64(per), meanOp) }
	p99 := func(xs []float64) float64 { v, _ := percentile(xs, 0.99); return v }
	set := func(prefix string, xs []float64, tail bool) {
		m[prefix+"_ms_p50"] = median(xs)
		m[prefix+"_share_pct"] = share(sum(xs), n)
		if tail {
			m[prefix+"_ms_p99"] = p99(xs)
		}
	}
	set("http.submit", submitMs, true)
	set("http.delivery", deliveryMs, false)
	set("http.view", viewMs, false)
	set("service.queue", queueMs, true)
	set("service.exec", execMs, true)
	m["service.retries_per_op"] = retries / float64(n)
	m["service.sse_rows_per_op"] = rows / float64(n)
	m["compile.code_bytes_per_op"] = perOp(code, executed)
	m["compile.dup_code_bytes_per_op"] = perOp(dup, executed)
	m["vm.instrs_per_op"] = perOp(instrs, executed)
	m["vm.cycles_per_op"] = perOp(cycles, executed)
	m["core.checks_per_op"] = perOp(checks, executed)
	m["core.samples_per_op"] = perOp(fires, executed)
	m["core.dup_entries_per_op"] = perOp(dupEntries, executed)
	m["harness.residual_pct"] = pct(sum(opMs)-sum(submitMs)-sum(queueMs)-sum(execMs)-sum(deliveryMs)-sum(viewMs), sum(opMs))
	m["ledger.residual_pct"] = pct(clientMs-ledgerMs, clientMs)

	// A fleet's coordinator ledger has no compile or vm-run rows: those
	// stages ran on a worker, inside the coordinator's dispatch stage.
	workerStage := map[string][]float64{}
	for _, j := range workerJobs {
		for st, v := range j {
			workerStage[st] = append(workerStage[st], v)
		}
	}
	for _, s := range ledgerStages {
		xs, per := stage[s], n
		if w.fleet && (s == "compile" || s == "vm-run") {
			xs, per = workerStage[s], max(len(workerJobs), 1)
		}
		m["ledger."+s+"_ms_p50"] = median(xs)
		m["ledger."+s+"_share_pct"] = share(sum(xs), per)
	}
	vmRun, runs := stage["vm-run"], executed
	if w.fleet {
		vmRun, runs = workerStage["vm-run"], len(workerJobs)
	}
	if s := sum(vmRun) / float64(max(runs, 1)); s > 0 {
		m["vm.minstr_per_s"] = perOp(instrs, executed) / s / 1e3
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	memo, run := delta("cells_memo_hit_service"), delta("cells_run_service")
	m["experiment.memo_hit_pct"] = pct(memo, memo+run)
	if w.fleet {
		dispatch := stage["dispatch"]
		m["fabric.dispatch_ms_p50"] = median(dispatch)
		m["fabric.dispatch_share_pct"] = share(sum(dispatch), n)
		var inside float64
		for _, j := range workerJobs {
			inside += j["compile"] + j["vm-run"] + j["export"]
		}
		hop := sum(dispatch)/float64(n) - inside/float64(max(len(workerJobs), 1))
		m["fabric.hop_ms_mean"] = hop
		m["fabric.hop_share_pct"] = pct(hop, meanOp)
		m["fabric.steals_per_op"] = delta("fleet_steals") / float64(n)
		m["fabric.cas_hit_pct"] = pct(delta("fleet_cas_local_hit")+delta("fleet_cas_remote_hit"), float64(n))
		m["fabric.piggyback_per_op"] = delta("fleet_singleflight_piggyback") / float64(n)
	}
}
