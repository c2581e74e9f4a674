// Package instrsample_test holds the top-level benchmark harness: one
// testing.B benchmark per paper table/figure (regenerating the artifact at
// reduced scale and reporting its headline numbers as metrics), plus
// micro-benchmarks of the substrate itself (interpreter throughput,
// transform speed).
//
//	go test -bench=. -benchmem
//
// The full-scale artifacts are produced by cmd/experiments; these benches
// exist so `go test -bench` exercises every experiment path and gives
// quick relative numbers on the host machine.
package instrsample_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/experiment"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/oracle"
	"instrsample/internal/service"
	"instrsample/internal/telemetry"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// benchScale keeps per-iteration work modest; artifact shape is unchanged.
const benchScale = 0.05

func benchConfig() experiment.Config {
	return experiment.Config{Scale: benchScale, ICache: true}
}

// lastRowMetric extracts a numeric cell from a table's final (average) row.
func lastRowMetric(b *testing.B, tab *experiment.Table, col int) float64 {
	b.Helper()
	row := tab.Rows[len(tab.Rows)-1]
	v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
	if err != nil {
		b.Fatalf("cell %q: %v", row[col], err)
	}
	return v
}

func runArtifact(b *testing.B, id string, metricCol int, metricName string) {
	gen, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var metric float64
	for i := 0; i < b.N; i++ {
		tab, err := gen(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if metricCol >= 0 {
			metric = lastRowMetric(b, tab, metricCol)
		}
	}
	if metricCol >= 0 {
		b.ReportMetric(metric, metricName)
	}
}

// BenchmarkTable1 regenerates Table 1 (exhaustive instrumentation
// overhead) and reports the suite-average call-edge overhead.
func BenchmarkTable1(b *testing.B) { runArtifact(b, "table1", 1, "calledge-overhead-%") }

// BenchmarkTable2 regenerates Table 2 (Full-Duplication framework
// overhead, no samples) and reports the suite-average total overhead.
func BenchmarkTable2(b *testing.B) { runArtifact(b, "table2", 1, "framework-overhead-%") }

// BenchmarkTable3 regenerates Table 3 (No-Duplication check overhead) and
// reports the suite-average field-access overhead.
func BenchmarkTable3(b *testing.B) { runArtifact(b, "table3", 2, "nodup-field-overhead-%") }

// BenchmarkTable4 regenerates the Table 4 interval sweep. The reported
// metric is the Full-Duplication interval-1000 total overhead (the
// paper's headline 6.3%).
func BenchmarkTable4(b *testing.B) {
	var metric float64
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Table4(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[0] == "Full-Duplication" && row[1] == "1000" {
				v, err := strconv.ParseFloat(row[4], 64)
				if err != nil {
					b.Fatal(err)
				}
				metric = v
			}
		}
	}
	b.ReportMetric(metric, "fd1000-total-overhead-%")
}

// BenchmarkFigure7 regenerates the javac call-edge profile comparison.
func BenchmarkFigure7(b *testing.B) { runArtifact(b, "figure7", -1, "") }

// BenchmarkFigure8A regenerates the yieldpoint-optimized framework
// overhead table and reports its average.
func BenchmarkFigure8A(b *testing.B) { runArtifact(b, "figure8a", 1, "yieldopt-overhead-%") }

// BenchmarkFigure8B regenerates the yieldpoint-optimized sampling sweep.
func BenchmarkFigure8B(b *testing.B) { runArtifact(b, "figure8b", -1, "") }

// BenchmarkTable5 regenerates the trigger comparison and reports the
// counter-minus-timer accuracy gap.
func BenchmarkTable5(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Table5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		gap = lastRowMetric(b, tab, 2) - lastRowMetric(b, tab, 1)
	}
	b.ReportMetric(gap, "counter-vs-timer-gap-pts")
}

// BenchmarkConvergence regenerates the accuracy-convergence curves and
// reports Full-Duplication's end-of-run overlap.
func BenchmarkConvergence(b *testing.B) { runArtifact(b, "convergence", 1, "full-final-overlap-%") }

// --- substrate micro-benchmarks ---

// BenchmarkInterpreter measures raw interpreter throughput on the
// compress kernel (host ns per simulated instruction).
func BenchmarkInterpreter(b *testing.B) {
	prog := bench.Compress(benchScale)
	res, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		out, err := vm.New(res.Prog, vm.Config{}).Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += out.Stats.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "M-instrs/sec")
}

// BenchmarkInterpreterReference measures the retained reference dispatch
// on the same kernel; the gap to BenchmarkInterpreter is the fast path's
// win (precomputed cost table, pooled frames, hoisted budget checks).
func BenchmarkInterpreterReference(b *testing.B) {
	prog := bench.Compress(benchScale)
	res, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		out, err := vm.New(res.Prog, vm.Config{Reference: true}).Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += out.Stats.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "M-instrs/sec")
}

// BenchmarkFusedVsReference is the fast path's floor: the fused
// dispatcher must never be slower than the reference dispatcher. Each
// iteration is one round that times both dispatchers on the compress
// kernel back to back, in an order that alternates by round, so the two
// legs share one time window on a shared host (BENCHMARKING.md). The
// metric is the median of the per-round fused/reference M-instr/s
// ratios, and a median below 1.0 over three or more rounds fails the
// benchmark (`make fusion-smoke` runs three rounds, `make bench-ab`
// seven). A single round, such as the testing package's first probe
// iteration, is reported but not gated.
func BenchmarkFusedVsReference(b *testing.B) {
	res, err := compile.Compile(bench.Compress(benchScale), compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	fused, ref := vm.Config{}, vm.Config{Reference: true}
	leg := func(cfg vm.Config, reps int) float64 {
		var instrs uint64
		start := time.Now()
		for range reps {
			out, err := vm.New(res.Prog, cfg).Run()
			if err != nil {
				b.Fatal(err)
			}
			instrs += out.Stats.Instrs
		}
		return float64(instrs) / time.Since(start).Seconds() / 1e6
	}
	// Calibrate once so a leg lasts at least 30 ms on the slower
	// reference dispatcher; the calibration run warms that leg, and one
	// untimed fused run warms the other.
	start := time.Now()
	leg(ref, 1)
	reps := int(30*time.Millisecond/time.Since(start)) + 1
	leg(fused, 1)
	b.ResetTimer()
	ratios := make([]float64, b.N)
	for i := range ratios {
		var f, r float64
		if i%2 == 0 {
			f = leg(fused, reps)
			r = leg(ref, reps)
		} else {
			r = leg(ref, reps)
			f = leg(fused, reps)
		}
		ratios[i] = f / r
	}
	slices.Sort(ratios)
	med := (ratios[(b.N-1)/2] + ratios[b.N/2]) / 2
	b.ReportMetric(med, "fused/ref")
	if b.N >= 3 && med < 1.0 {
		b.Fatalf("median fused/reference ratio %.2f over %d rounds is below the 1.0 floor", med, b.N)
	}
}

// BenchmarkInterpreterCalls measures call-dense throughput (naive fib,
// two calls per node) — the workload where frame pooling matters most.
func BenchmarkInterpreterCalls(b *testing.B) {
	fb := ir.NewFunc("fib", 1)
	{
		c := fb.At(fb.EntryBlock())
		two := c.Const(2)
		cond := c.Bin(ir.OpCmpLT, 0, two)
		thenB := fb.Block("")
		elseB := fb.Block("")
		c.Branch(cond, thenB, elseB)
		tc := fb.At(thenB)
		tc.Return(0)
		ec := fb.At(elseB)
		one := ec.Const(1)
		n1 := ec.Bin(ir.OpSub, 0, one)
		n2 := ec.Bin(ir.OpSub, n1, one)
		ec.Return(ec.Bin(ir.OpAdd, ec.Call(fb.M, n1), ec.Call(fb.M, n2)))
	}
	mb := ir.NewFunc("main", 0)
	{
		c := mb.At(mb.EntryBlock())
		n := c.Const(22)
		c.Return(c.Call(fb.M, n))
	}
	p := &ir.Program{Name: "fib", Funcs: []*ir.Method{fb.M, mb.M}, Main: mb.M}
	p.Seal()
	res, err := compile.Compile(p, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		out, err := vm.New(res.Prog, vm.Config{}).Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += out.Stats.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "M-instrs/sec")
}

// BenchmarkInterpreterICache measures the same kernel with the i-cache
// model enabled, quantifying the model's own cost.
func BenchmarkInterpreterICache(b *testing.B) {
	prog := bench.Compress(benchScale)
	res, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.New(res.Prog, vm.Config{ICache: vm.DefaultICache()}).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// sampledCompress compiles the fully sampled compress workload (both
// paper instrumentations, Full-Duplication) shared by the sampled-run
// benchmarks below.
func sampledCompress(b *testing.B) *compile.Result {
	b.Helper()
	res, err := compile.Compile(bench.Compress(benchScale), compile.Options{
		Instrumenters: []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}},
		Framework:     &core.Options{Variation: core.FullDuplication},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSampledRun measures a fully sampled run (both paper
// instrumentations, Full-Duplication, interval 1000), nil observer —
// the baseline the telemetry variants below are compared against.
func BenchmarkSampledRun(b *testing.B) {
	res := sampledCompress(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.New(res.Prog, vm.Config{
			Trigger:  trigger.NewCounter(1000),
			Handlers: res.Handlers,
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampledRunMeter measures the same sampled run with the
// metrics meter alone attached, the way every service job runs. The
// meter declares a sparse event mask and a capture deadline, so the run
// stays on fused streams; the gap to BenchmarkSampledRun is what the
// meter costs.
func BenchmarkSampledRunMeter(b *testing.B) {
	res := sampledCompress(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meter := telemetry.NewMeter(telemetry.NewRegistry(), "counter/1000", 1<<16, nil)
		v := vm.New(res.Prog, vm.Config{
			Trigger:  trigger.NewCounter(1000),
			Handlers: res.Handlers,
			Observer: meter,
		})
		meter.SetClock(v)
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
		meter.Finish()
	}
}

// BenchmarkSampledRunTelemetry measures the same sampled run with the
// full telemetry chain attached (trace recorder + metrics meter). The
// gap to BenchmarkSampledRunMeter is the price of tracing: the trace
// recorder declares no event mask, so it turns fused streams off and
// every hook records an event.
func BenchmarkSampledRunTelemetry(b *testing.B) {
	res := sampledCompress(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := telemetry.NewTrace(1 << 14)
		meter := telemetry.NewMeter(telemetry.NewRegistry(), "counter/1000", 1<<16, nil)
		cfg := vm.Config{
			Trigger:  trigger.NewCounter(1000),
			Handlers: res.Handlers,
			Observer: vm.CombineObservers(tr, meter),
		}
		v := vm.New(res.Prog, cfg)
		tr.SetClock(v)
		meter.SetClock(v)
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
		meter.Finish()
	}
}

// BenchmarkSampledRunOracleTelemetry stacks the invariant oracle on top
// of the telemetry chain — the worst-case observer fan-out (three
// consumers per event through vm.MultiObserver), and the configuration
// `isamp -verify -trace -metrics` runs.
func BenchmarkSampledRunOracleTelemetry(b *testing.B) {
	res := sampledCompress(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orc := oracle.New()
		tr := telemetry.NewTrace(1 << 14)
		meter := telemetry.NewMeter(telemetry.NewRegistry(), "counter/1000", 1<<16, nil)
		cfg := vm.Config{
			Trigger:  trigger.NewCounter(1000),
			Handlers: res.Handlers,
			Observer: vm.CombineObservers(orc, tr, meter),
		}
		v := vm.New(res.Prog, cfg)
		tr.SetClock(v)
		meter.SetClock(v)
		out, err := v.Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := orc.Finish(out.Stats); err != nil {
			b.Fatal(err)
		}
		meter.Finish()
	}
}

// benchCompile measures the compiler pipeline under a framework variation.
func benchCompile(b *testing.B, fw *core.Options) {
	prog := bench.Optc(0.01) // many methods, realistic CFGs
	var ins []instr.Instrumenter
	if fw != nil {
		ins = []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile(prog, compile.Options{Instrumenters: ins, Framework: fw}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileBaseline measures the baseline pipeline (optimizer,
// yieldpoints, liveness, layout).
func BenchmarkCompileBaseline(b *testing.B) { benchCompile(b, nil) }

// BenchmarkCompileFullDuplication measures the pipeline with
// instrumentation plus the Full-Duplication transform — the compile-time
// increase of Table 2.
func BenchmarkCompileFullDuplication(b *testing.B) {
	benchCompile(b, &core.Options{Variation: core.FullDuplication})
}

// BenchmarkCompilePartialDuplication measures the Partial-Duplication
// transform (top/bottom-node analysis included).
func BenchmarkCompilePartialDuplication(b *testing.B) {
	benchCompile(b, &core.Options{Variation: core.PartialDuplication})
}

// BenchmarkCompileNoDuplication measures the No-Duplication transform.
func BenchmarkCompileNoDuplication(b *testing.B) {
	benchCompile(b, &core.Options{Variation: core.NoDuplication})
}

// BenchmarkCheckCost isolates the per-check cost: a tight loop measured
// with and without backedge checks; the metric is simulated cycles per
// check.
func BenchmarkCheckCost(b *testing.B) {
	mk := func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		c := fb.At(fb.EntryBlock())
		n := c.Const(100000)
		lp := c.CountedLoop(n, "l")
		lp.Body.Jump(lp.Latch)
		lp.After.Return(lp.I)
		p := &ir.Program{Name: "micro", Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
	base, err := compile.Compile(mk(), compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	checked, err := compile.Compile(mk(), compile.Options{ChecksOnly: &core.ChecksOnly{Backedges: true}})
	if err != nil {
		b.Fatal(err)
	}
	var perCheck float64
	for i := 0; i < b.N; i++ {
		o1, err := vm.New(base.Prog, vm.Config{}).Run()
		if err != nil {
			b.Fatal(err)
		}
		o2, err := vm.New(checked.Prog, vm.Config{Trigger: trigger.Never{}}).Run()
		if err != nil {
			b.Fatal(err)
		}
		perCheck = float64(o2.Stats.Cycles-o1.Stats.Cycles) / float64(o2.Stats.Checks)
	}
	b.ReportMetric(perCheck, "cycles/check")
}

// BenchmarkInterpreterCancelArmed is BenchmarkInterpreter with a cancel
// token armed but never fired: the dispatch loop's per-observation-point
// poll is live. The gap to BenchmarkInterpreter is the price of *being*
// cancellable; the nil-token configuration (BenchmarkInterpreter itself)
// must stay within noise of the pre-seam tree — that A/B is recorded in
// BENCH_PR5.json.
func BenchmarkInterpreterCancelArmed(b *testing.B) {
	prog := bench.Compress(benchScale)
	res, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tok := vm.NewCancel()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		out, err := vm.New(res.Prog, vm.Config{Cancel: tok}).Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += out.Stats.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "M-instrs/sec")
}

// --- daemon throughput ---

// benchDaemonThroughput pushes b.N unique tiny jobs through the full
// HTTP submit path into a Server with the given worker-pool size and
// measures end-to-end jobs/sec: JSON validation, queue, worker dispatch,
// compile, VM run, terminal-state accounting. Sources are unique per job
// so neither the memo table nor the cache short-circuits the work.
func benchDaemonThroughput(b *testing.B, workers int) {
	s := service.New(service.Config{Workers: workers, QueueDepth: b.N + 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	}()
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"source":"func main() {\nentry:\n  const i, 0\n  const n, %d\n  const one, 1\nloop:\n  cmplt c, i, n\n  br c, body, done\nbody:\n  add i, i, one\n  jmp loop\ndone:\n  ret i\n}\n"}`, 1000+i)
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	reg := s.Registry()
	for reg.Counter(service.MetricJobsCompleted).Value() < uint64(b.N) {
		if f := reg.Counter(service.MetricJobsFailed).Value(); f > 0 {
			b.Fatalf("%d jobs failed", f)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
}

func BenchmarkDaemonThroughput1(b *testing.B) { benchDaemonThroughput(b, 1) }
func BenchmarkDaemonThroughput4(b *testing.B) { benchDaemonThroughput(b, 4) }
func BenchmarkDaemonThroughput8(b *testing.B) { benchDaemonThroughput(b, 8) }
