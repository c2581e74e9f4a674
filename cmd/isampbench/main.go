// Command isampbench is the repository's benchmark of record. One
// invocation runs one seeded workload for a measured window and prints
// every metric by name with its unit; the last line of standard output
// is the result as one JSON object. It exits non-zero when any
// operation fails or returns a wrong answer.
//
//	go run . -workload kernels -seed 1 -seconds 15 -o out.json
//	go run . -workload service -seed 1 -trace 1      # per-layer cost tree
//	go run . -summarize runs/a*.json vs runs/b*.json # medians, quartiles, spread
//
// Workloads kernels and calls call the layers' Go functions in process
// (bench.Build, compile.Compile, vm.New(...).Run, Runtime.Profile,
// profile.Overlap). Workloads service, service-hot and fleet build
// cmd/isampd and cmd/isampfleet from the tree under test and drive them
// through their flags and HTTP API only. See README.md for the metrics,
// the workloads and why each was chosen.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported from the
// untraced run (-trace 0).
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p99", "ms"},
	{"overlap_pct", "%"},
	{"setup_s", "s"},
}

// ledgerStages are the isampd/isampfleet attribution-ledger stages the
// traced HTTP workloads report.
var ledgerStages = []string{
	"accept", "validate", "queue-wait", "memo-flight", "cache-probe",
	"dispatch", "compile", "vm-run", "export",
}

// perLayer are the single-layer metrics, reported from the traced run
// (-trace 1). Every *_ms_* latency has a *_share_pct twin: the layer's
// summed time over the summed op latency.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"bench.build_ms_p50", "ms"}, {"bench.build_share_pct", "%"},
		{"compile.ms_p50", "ms"}, {"compile.share_pct", "%"},
		{"compile.work_per_op", "count"},
		{"compile.code_bytes_per_op", "bytes"},
		{"compile.dup_code_bytes_per_op", "bytes"},
		{"vm.run_ms_p50", "ms"}, {"vm.run_share_pct", "%"},
		{"vm.minstr_per_s", "Minstr/s"},
		{"vm.fused_share_pct", "%"},
		{"vm.instrs_per_op", "count"},
		{"vm.cycles_per_op", "count"},
		{"core.checks_per_op", "count"},
		{"core.samples_per_op", "count"},
		{"core.dup_entries_per_op", "count"},
	}
	for _, v := range variations[1:] {
		d = append(d, metricDef{"core.host_overhead_pct." + v, "%"},
			metricDef{"core.cycle_overhead_pct." + v, "%"})
	}
	d = append(d,
		metricDef{"profile.ms_p50", "ms"}, metricDef{"profile.share_pct", "%"},
		metricDef{"runtime.alloc_bytes_per_op", "bytes"},
		metricDef{"runtime.gc_cpu_pct", "%"},
		metricDef{"runtime.rss_peak_mb", "MiB"},
		metricDef{"http.submit_ms_p50", "ms"}, metricDef{"http.submit_ms_p99", "ms"},
		metricDef{"http.submit_share_pct", "%"},
		metricDef{"http.delivery_ms_p50", "ms"}, metricDef{"http.delivery_share_pct", "%"},
		metricDef{"http.view_ms_p50", "ms"}, metricDef{"http.view_share_pct", "%"},
		metricDef{"service.queue_ms_p50", "ms"}, metricDef{"service.queue_ms_p99", "ms"},
		metricDef{"service.queue_share_pct", "%"},
		metricDef{"service.exec_ms_p50", "ms"}, metricDef{"service.exec_ms_p99", "ms"},
		metricDef{"service.exec_share_pct", "%"},
		metricDef{"service.retries_per_op", "count"},
		metricDef{"service.sse_rows_per_op", "count"},
		metricDef{"experiment.memo_hit_pct", "%"},
	)
	for _, s := range ledgerStages {
		d = append(d, metricDef{"ledger." + s + "_ms_p50", "ms"},
			metricDef{"ledger." + s + "_share_pct", "%"})
	}
	d = append(d,
		metricDef{"ledger.residual_pct", "%"},
		metricDef{"fabric.dispatch_ms_p50", "ms"}, metricDef{"fabric.dispatch_share_pct", "%"},
		metricDef{"fabric.hop_ms_mean", "ms"}, metricDef{"fabric.hop_share_pct", "%"},
		metricDef{"fabric.steals_per_op", "count"},
		metricDef{"fabric.cas_hit_pct", "%"},
		metricDef{"fabric.piggyback_per_op", "count"},
		metricDef{"harness.residual_pct", "%"},
		metricDef{"harness.trace_cost_pct", "%"},
		metricDef{"harness.host_speed_pct", "%"},
	)
	return d
}()

// options are the parsed command-line settings of one run.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	warmup   time.Duration
	trace    bool
	// setups is how many times set-up runs; setup_s is their median.
	setups  int
	root    string
	work    string
	out     string
	clients int
	// speed samples the host's speed for the whole run.
	speed *hostSpeed
}

// run is main minus the process concerns; it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("isampbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname     = fs.String("workload", "", "workload: kernels, calls, service, service-hot or fleet")
		seed      = fs.Int64("seed", 1, "workload seed; the same seed replays the same ops")
		seconds   = fs.Float64("seconds", 15, "length of the measured window in seconds")
		trace     = fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run; 0 the end-to-end metrics")
		out       = fs.String("o", "", "also write the result, with sample counts, to this JSON file")
		quick     = fs.Bool("quick", false, "smoke mode: 0.5 s windows, short warm-up, one set-up")
		summarize = fs.Bool("summarize", false, "summarize result files given as arguments; 'vs' separates a second set")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "isampbench:", err)
		return 1
	}
	if *summarize {
		if err := summarizeFiles(stdout, filepath.Join(root, "BENCHMARK.json"), fs.Args()); err != nil {
			fmt.Fprintln(stderr, "isampbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*wname)
	if err != nil {
		fmt.Fprintln(stderr, "isampbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "isampbench: -trace must be 0 or 1")
		return 2
	}
	o := options{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		warmup: time.Second, setups: 3, root: root, work: filepath.Join(root, ".bench_build", "isampbench"),
		out: *out, clients: 2,
	}
	if *quick {
		o.seconds, o.warmup, o.setups = 0.5, 200*time.Millisecond, 1
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "isampbench: -seconds must be positive")
		return 2
	}
	res, err := runWorkload(ctx, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "isampbench:", err)
		return 1
	}
	if err := report(stdout, o, res); err != nil {
		fmt.Fprintln(stderr, "isampbench:", err)
		return 1
	}
	if !res.correct {
		fmt.Fprintf(stderr, "isampbench: %d of %d ops failed or returned a wrong answer; first: %v\n",
			res.failed, res.attempted, res.firstErr)
		return 1
	}
	return 0
}

// findRoot returns the repository root: the working directory or its
// grandparent, whichever holds cmd/isampbench.
func findRoot() (string, error) {
	cands := []string{".", filepath.Join("..", "..")}
	for _, c := range cands {
		if _, err := os.Stat(filepath.Join(c, "cmd", "isampbench", "go.mod")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("run from the repository root or cmd/isampbench: no cmd/isampbench/go.mod in %v", cands)
}

// outcome is what one run measured.
type outcome struct {
	correct           bool
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
	// samples counts the latency samples behind the op percentiles;
	// p99ok reports whether they are enough for a p99.
	samples int
	p99ok   bool
	// raw holds the end-to-end timings before host-speed normalization.
	raw map[string]float64
}

// runWorkload sets up, measures and tears down one workload. An
// interrupted run reports no result.
func runWorkload(ctx context.Context, o options, stderr io.Writer) (*outcome, error) {
	measure := runInProcess
	if o.workload.http {
		measure = runHTTP
	}
	o.speed = startHostSpeed()
	defer o.speed.close()
	res, err := measure(ctx, o, stderr)
	if err == nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return res, err
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what -o writes: the result plus what produced it.
type resultFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Samples  int     `json:"samples"`
	// Raw are the end-to-end timings before host-speed normalization.
	Raw map[string]float64 `json:"raw,omitempty"`
	result
}

// report prints every metric of the run's kind with its unit, then the
// result JSON line, and writes the -o file.
func report(stdout io.Writer, o options, res *outcome) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	r := result{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", d.name, v, d.unit)
	}
	if !o.trace && !res.p99ok {
		fmt.Fprintf(stdout, "note: op_ms_p99 rests on %d samples; a p99 needs 1000\n", res.samples)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if o.out == "" {
		return nil
	}
	data, err := json.MarshalIndent(resultFile{
		Workload: o.workload.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Samples: res.samples, Raw: res.raw, result: r,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(data, '\n'), 0o644)
}

// sample is one completed op of a window.
type sample[R any] struct {
	ms  float64 // op latency, wall clock
	rec R
}

// window is what one closed-loop measurement window collected.
type window[R any] struct {
	samples           []sample[R]
	attempted, failed int
	from, to          time.Time
	// firstErr is the first failure in the window; outsideErr the first
	// in the warm-up or the tail, which still makes the run incorrect.
	firstErr, outsideErr error
}

func (w *window[R]) latencies() []float64 {
	xs := make([]float64, len(w.samples))
	for i, s := range w.samples {
		xs[i] = s.ms
	}
	return xs
}

// opsPerSec returns the window's throughput, at the reference host
// speed when sp is not nil.
func (w *window[R]) opsPerSec(sp *hostSpeed) float64 {
	r := float64(len(w.samples)) / w.to.Sub(w.from).Seconds()
	if sp != nil {
		r /= sp.factor(w.from, w.to)
	}
	return r
}

// opFunc runs op i and returns its latency and per-layer record; any
// error, including a wrong answer, fails the op.
type opFunc[R any] func(i int) (time.Duration, R, error)

// closedLoop runs clients goroutines, each issuing its next op only
// after the previous one completed, for warm (unmeasured) then dur
// (measured). Op indices come from next, so consecutive windows
// continue one plan. An op belongs to the window when it completes
// inside it; ops still running at the end finish and are checked but
// not counted.
func closedLoop[R any](ctx context.Context, clients int, next *atomic.Int64, warm, dur time.Duration, op opFunc[R]) window[R] {
	start := time.Now()
	from, to := start.Add(warm), start.Add(warm+dur)
	var (
		mu sync.Mutex
		w  window[R]
		wg sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(to) {
				i := int(next.Add(1) - 1)
				lat, rec, err := op(i)
				end := time.Now()
				mu.Lock()
				inside := !end.Before(from) && !end.After(to)
				switch {
				case inside && err != nil:
					w.attempted++
					w.failed++
					if w.firstErr == nil {
						w.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				case inside:
					w.attempted++
					w.samples = append(w.samples, sample[R]{ms(lat), rec})
				case err != nil && w.outsideErr == nil:
					w.outsideErr = fmt.Errorf("op %d: %w", i, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.from, w.to = from, to
	if err := ctx.Err(); err != nil && w.outsideErr == nil {
		w.outsideErr = err
	}
	return w
}

// windowDurations splits the run's seconds: an untraced run measures
// one window; a traced run measures an untraced and a traced half, so
// harness.trace_cost_pct compares the two in one process.
func (o options) windowDurations() (untraced, traced time.Duration) {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return d / 2, d / 2
	}
	return d, 0
}

// endToEndMetrics sets the throughput and latency metrics of an
// untraced window at the reference host speed, and keeps the raw
// figures beside them.
func endToEndMetrics[R any](res *outcome, w *window[R], sp *hostSpeed) {
	raw := w.latencies()
	f := sp.factor(w.from, w.to)
	norm := make([]float64, len(raw))
	for i, x := range raw {
		norm[i] = x * f
	}
	res.samples = len(raw)
	res.metrics["ops_per_s"] = w.opsPerSec(sp)
	res.metrics["op_ms_p50"] = median(norm)
	res.metrics["op_ms_p99"], res.p99ok = percentile(norm, 0.99)
	res.raw["ops_per_s"] = w.opsPerSec(nil)
	res.raw["op_ms_p50"] = median(raw)
	res.raw["op_ms_p99"], _ = percentile(raw, 0.99)
	res.raw["host_speed"] = f
}

// setupSeconds times set-up fn once: raw and at the reference speed.
func setupSeconds(sp *hostSpeed, fn func() error) (raw, norm float64, err error) {
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	return t1.Sub(t0).Seconds(), t1.Sub(t0).Seconds() * sp.factor(t0, t1), nil
}

// finish folds the windows' counts into the outcome.
func finish[R any](res *outcome, untraced, traced *window[R], sp *hostSpeed) {
	res.attempted, res.failed = untraced.attempted, untraced.failed
	res.firstErr = untraced.firstErr
	errs := []error{untraced.outsideErr}
	if traced != nil {
		res.attempted += traced.attempted
		res.failed += traced.failed
		if res.firstErr == nil {
			res.firstErr = traced.firstErr
		}
		errs = append(errs, traced.outsideErr)
		ups := res.metrics["ops_per_s"]
		res.metrics["harness.trace_cost_pct"] = pct(ups-traced.opsPerSec(sp), ups)
		res.metrics["harness.host_speed_pct"] = 100 * sp.factor(traced.from, traced.to)
		// A layer the workload does not pass through reports 0.
		for _, d := range perLayer {
			if _, ok := res.metrics[d.name]; !ok {
				res.metrics[d.name] = 0
			}
		}
	}
	if res.firstErr == nil {
		res.firstErr = errors.Join(errs...)
	}
	res.correct = res.failed == 0 && res.firstErr == nil && res.attempted > 0
	if res.attempted == 0 && res.firstErr == nil {
		res.firstErr = errors.New("no op completed inside the measured window")
	}
}
