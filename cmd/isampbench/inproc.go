package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/profile"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// frameworks maps the sampled variations to the framework options.
var frameworks = map[string]core.Options{
	"full":    {Variation: core.FullDuplication},
	"partial": {Variation: core.PartialDuplication},
	"nodup":   {Variation: core.NoDuplication},
	"full-yp": {Variation: core.FullDuplication, YieldpointOpt: true},
}

// compileOptions returns a configuration's compile options with fresh
// instrumenters: call-edge plus field-access, the paper's §4.2 pair.
func compileOptions(c config) compile.Options {
	if c.Variation == "base" {
		return compile.Options{}
	}
	opts := compile.Options{Instrumenters: []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}}}
	if fw, ok := frameworks[c.Variation]; ok {
		opts.Framework = &fw
	}
	return opts
}

// profiled is one profiling run's output and, when traced, its
// per-layer record.
type profiled struct {
	ret      int64
	output   [32]byte
	stats    vm.Stats
	profiles []*profile.Profile
	overlaps []float64
	rec      inprocRec
}

// inprocRec is one op's per-layer record.
type inprocRec struct {
	cfg                            config
	buildMs, compileMs, runMs, pMs float64
	work                           int64
	code, dup                      int
	stats                          vm.Stats
	fusedInstrs                    uint64
}

// profileRun performs one op: bench build, compile (instrumentation
// plus the framework transform), VM run and profile extraction, with
// each sampled profile compared against its exhaustive reference. With
// traced set it times each call separately and reads the fusion
// counters.
func profileRun(c config, reference, traced bool, exhaustive []*profile.Profile) (*profiled, time.Duration, error) {
	b, err := bench.ByName(c.Bench)
	if err != nil {
		return nil, 0, err
	}
	var t [5]time.Time
	stamp := func(k int) {
		if traced || k == 0 || k == 4 {
			t[k] = time.Now()
		}
	}
	stamp(0)
	prog := b.Build(scales[c.Bench])
	stamp(1)
	cr, err := compile.Compile(prog, compileOptions(c))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: compile: %w", c, err)
	}
	stamp(2)
	vcfg := vm.Config{Handlers: cr.Handlers, Reference: reference}
	if c.sampled() {
		vcfg.Trigger = trigger.NewCounter(c.Interval)
	}
	v := vm.New(cr.Prog, vcfg)
	out, err := v.Run()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: run: %w", c, err)
	}
	stamp(3)
	p := &profiled{ret: out.Return, output: hashOutput(out.Output), stats: out.Stats}
	for i, rt := range cr.Runtimes {
		prof := rt.Profile()
		p.profiles = append(p.profiles, prof)
		if c.sampled() && exhaustive != nil {
			p.overlaps = append(p.overlaps, profile.Overlap(prof, exhaustive[i]))
		}
	}
	stamp(4)
	lat := t[4].Sub(t[0])
	if traced {
		p.rec = inprocRec{
			cfg: c, buildMs: ms(t[1].Sub(t[0])), compileMs: ms(t[2].Sub(t[1])),
			runMs: ms(t[3].Sub(t[2])), pMs: ms(t[4].Sub(t[3])),
			work: cr.Work, code: cr.CodeSize, dup: cr.DuplicatedCodeSize,
			stats: out.Stats, fusedInstrs: v.FusionStats().Instrs,
		}
	}
	return p, lat, nil
}

func hashOutput(xs []int64) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func hashProfile(p *profile.Profile) [32]byte {
	h := sha256.New()
	h.Write([]byte(p.Name))
	var buf [16]byte
	for _, e := range p.Entries() {
		binary.LittleEndian.PutUint64(buf[:8], e.Key)
		binary.LittleEndian.PutUint64(buf[8:], e.Count)
		h.Write(buf[:])
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// fingerprint is a configuration's reference answer from the retained
// reference dispatcher: every timed op must match it exactly.
type fingerprint struct {
	ret      int64
	output   [32]byte
	stats    vm.Stats
	profiles [][32]byte
	overlaps []float64
}

// references holds the fingerprints of every configuration a workload
// runs, the exhaustive profiles sampled runs are compared with, and the
// resulting mean overlap.
type references struct {
	prints     map[config]*fingerprint
	exhaustive map[string][]*profile.Profile
	overlapPct float64
}

// buildReferences runs each configuration once on the reference
// dispatcher, on workers goroutines. A sampled configuration's bench
// must have its exhaustive configuration in cfgs too.
func buildReferences(ctx context.Context, cfgs []config, workers int) (*references, error) {
	runs := make([]*profiled, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(cfgs) {
					return
				}
				runs[i], _, errs[i] = profileRun(cfgs[i], true, false, nil)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	refs := &references{prints: map[config]*fingerprint{}, exhaustive: map[string][]*profile.Profile{}}
	for i, c := range cfgs {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference run: %w", errs[i])
		}
		if c.Variation == "exhaustive" {
			refs.exhaustive[c.Bench] = runs[i].profiles
		}
	}
	var overlaps []float64
	for i, c := range cfgs {
		r := runs[i]
		fp := &fingerprint{ret: r.ret, output: r.output, stats: r.stats}
		for k, p := range r.profiles {
			fp.profiles = append(fp.profiles, hashProfile(p))
			if c.sampled() {
				fp.overlaps = append(fp.overlaps, profile.Overlap(p, refs.exhaustive[c.Bench][k]))
			}
		}
		overlaps = append(overlaps, fp.overlaps...)
		refs.prints[c] = fp
	}
	if len(overlaps) > 0 {
		refs.overlapPct = sum(overlaps) / float64(len(overlaps))
	}
	return refs, nil
}

// check compares an op's answer with its configuration's fingerprint.
func (r *references) check(c config, p *profiled) error {
	fp := r.prints[c]
	switch {
	case fp == nil:
		return fmt.Errorf("%s: no reference fingerprint", c)
	case p.ret != fp.ret:
		return fmt.Errorf("%s: return %d, reference %d", c, p.ret, fp.ret)
	case p.output != fp.output:
		return fmt.Errorf("%s: output differs from the reference dispatcher's", c)
	case p.stats != fp.stats:
		return fmt.Errorf("%s: stats %+v, reference %+v", c, p.stats, fp.stats)
	case len(p.profiles) != len(fp.profiles) || len(p.overlaps) != len(fp.overlaps):
		return fmt.Errorf("%s: %d profiles, reference %d", c, len(p.profiles), len(fp.profiles))
	}
	for k, prof := range p.profiles {
		if hashProfile(prof) != fp.profiles[k] {
			return fmt.Errorf("%s: %s profile differs from the reference dispatcher's", c, prof.Name)
		}
	}
	// profile.Overlap sums over a map, so equal profiles may differ in
	// the last bits of their overlap.
	for k, ov := range p.overlaps {
		if math.Abs(ov-fp.overlaps[k]) > 1e-9 {
			return fmt.Errorf("%s: overlap %.6f%%, reference %.6f%%", c, ov, fp.overlaps[k])
		}
	}
	return nil
}

// runInProcess measures the kernels or calls workload.
func runInProcess(ctx context.Context, o options, stderr io.Writer) (*outcome, error) {
	w := o.workload
	var refs *references
	var setups, rawSetups []float64
	for k := 0; k < o.setups; k++ {
		raw, norm, err := setupSeconds(o.speed, func() (err error) {
			refs, err = buildReferences(ctx, distinctConfigs(w.benches), o.clients)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups, rawSetups = append(setups, norm), append(rawSetups, raw)
	}
	plan := newConfigPlan(o.seed, w.benches)
	op := func(traced bool) opFunc[inprocRec] {
		return func(i int) (time.Duration, inprocRec, error) {
			c := plan.op(i)
			p, lat, err := profileRun(c, false, traced, refs.exhaustive[c.Bench])
			if err == nil {
				err = refs.check(c, p)
			}
			if err != nil {
				return 0, inprocRec{}, err
			}
			return lat, p.rec, nil
		}
	}
	untracedDur, tracedDur := o.windowDurations()
	var next atomic.Int64
	fmt.Fprintf(stderr, "isampbench: %s seed %d: set-up %.2fs, measuring %v\n", w.name, o.seed, median(setups), untracedDur+tracedDur)
	untraced := closedLoop(ctx, o.clients, &next, o.warmup, untracedDur, op(false))
	res := &outcome{metrics: map[string]float64{
		"overlap_pct": refs.overlapPct,
		"setup_s":     median(setups),
	}, raw: map[string]float64{"setup_s": median(rawSetups)}}
	endToEndMetrics(res, &untraced, o.speed)
	var traced *window[inprocRec]
	if o.trace {
		before := readGoRuntime()
		tw := closedLoop(ctx, o.clients, &next, 0, tracedDur, op(true))
		runtimeMetrics(res.metrics, before, readGoRuntime(), len(tw.samples))
		inProcessLayers(res.metrics, tw.samples)
		traced = &tw
	}
	res.metrics["runtime.rss_peak_mb"] = selfRSSMiB()
	finish(res, &untraced, traced, o.speed)
	return res, nil
}

// inProcessLayers sets the per-layer metrics from traced ops.
func inProcessLayers(m map[string]float64, samples []sample[inprocRec]) {
	n := len(samples)
	var build, comp, run, prof, opMs []float64
	var work, code, dup, instrs, cycles, checks, fires, dupEntries, fused float64
	type key struct{ bench, variation string }
	hostMs, cyc := map[key]float64{}, map[key]float64{}
	count := map[key]float64{}
	for _, s := range samples {
		r := s.rec
		opMs = append(opMs, s.ms)
		build = append(build, r.buildMs)
		comp = append(comp, r.compileMs)
		run = append(run, r.runMs)
		prof = append(prof, r.pMs)
		work += float64(r.work)
		code += float64(r.code)
		dup += float64(r.dup)
		instrs += float64(r.stats.Instrs)
		cycles += float64(r.stats.Cycles)
		checks += float64(r.stats.Checks)
		fires += float64(r.stats.CheckFires)
		dupEntries += float64(r.stats.DupEntries)
		fused += float64(r.fusedInstrs)
		k := key{r.cfg.Bench, r.cfg.Variation}
		hostMs[k] += r.runMs
		cyc[k] += float64(r.stats.Cycles)
		count[k]++
	}
	total := sum(opMs)
	layer := func(name string, xs []float64, share string) {
		m[name] = median(xs)
		m[share] = pct(sum(xs), total)
	}
	layer("bench.build_ms_p50", build, "bench.build_share_pct")
	layer("compile.ms_p50", comp, "compile.share_pct")
	layer("vm.run_ms_p50", run, "vm.run_share_pct")
	layer("profile.ms_p50", prof, "profile.share_pct")
	m["compile.work_per_op"] = perOp(work, n)
	m["compile.code_bytes_per_op"] = perOp(code, n)
	m["compile.dup_code_bytes_per_op"] = perOp(dup, n)
	if runS := sum(run) / 1e3; runS > 0 {
		m["vm.minstr_per_s"] = instrs / runS / 1e6
	}
	m["vm.fused_share_pct"] = pct(fused, instrs)
	m["vm.instrs_per_op"] = perOp(instrs, n)
	m["vm.cycles_per_op"] = perOp(cycles, n)
	m["core.checks_per_op"] = perOp(checks, n)
	m["core.samples_per_op"] = perOp(fires, n)
	m["core.dup_entries_per_op"] = perOp(dupEntries, n)
	// Overheads compare per-benchmark means against base over the same
	// window, summed over the benchmarks both appear for.
	for _, v := range variations[1:] {
		var hv, hb, cv, cb float64
		for k, c := range count {
			bk := key{k.bench, "base"}
			if k.variation != v || count[bk] == 0 {
				continue
			}
			hv += hostMs[k] / c
			hb += hostMs[bk] / count[bk]
			cv += cyc[k] / c
			cb += cyc[bk] / count[bk]
		}
		m["core.host_overhead_pct."+v] = pct(hv-hb, hb)
		m["core.cycle_overhead_pct."+v] = pct(cv-cb, cb)
	}
	m["harness.residual_pct"] = pct(total-sum(build)-sum(comp)-sum(run)-sum(prof), total)
}
