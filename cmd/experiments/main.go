// Command experiments regenerates the paper's tables and figures on the
// synthetic benchmark suite.
//
//	experiments                    # everything, full scale, ASCII
//	experiments -artifact table4   # one artifact
//	experiments -scale 0.25        # faster, smaller workloads
//	experiments -markdown -o results.md
//	experiments -bench javac,db    # restrict the suite
//	experiments -j 8               # run cells on 8 workers
//	experiments -no-cache          # ignore the on-disk result cache
//	experiments -timings           # slowest cells + per-artifact cache hit/miss
//	experiments -telemetry-dir d   # dump engine metrics as CSV + JSON
//	experiments -version           # print the cache-keying build ID
//
// Artifacts decompose into independent measurement cells executed on a
// bounded worker pool (-j, default GOMAXPROCS); cells shared between
// artifacts run once, and results are cached on disk (-cache-dir) keyed
// by the cell and the binary's build ID, so repeated invocations at the
// same scale are near-instant. Output is assembled in deterministic
// order and is byte-identical at any -j.
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is main minus the process concerns: flags come from args, output
// goes to the given writers, and failures return instead of exiting —
// which is what lets the smoke test drive the real flag parsing and
// artifact pipeline in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		artifact = fs.String("artifact", "", "one of table1..table5, figure7, figure8a, figure8b, scenario-sweep, ablation-* (default: all)")
		scale    = fs.Float64("scale", 1.0, "workload scale factor")
		markdown = fs.Bool("markdown", false, "emit markdown instead of ASCII tables")
		outPath  = fs.String("o", "", "write to file instead of stdout")
		benches  = fs.String("bench", "", "comma-separated benchmark subset")
		noICache = fs.Bool("no-icache", false, "disable the i-cache model")
		quiet    = fs.Bool("q", false, "suppress progress output")
		workers  = fs.Int("j", runtime.GOMAXPROCS(0), "number of parallel cell workers")
		cacheDir = fs.String("cache-dir", defaultCacheDir(), "on-disk result cache directory (empty disables)")
		noCache  = fs.Bool("no-cache", false, "disable the on-disk result cache")
		timings  = fs.Bool("timings", false, "report the slowest cells and per-artifact cache hit/miss counts")
		telDir   = fs.String("telemetry-dir", "", "write engine metrics (CSV + JSON) into this directory")
		version  = fs.Bool("version", false, "print the cache-keying build ID and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, experiment.BuildID())
		return nil
	}

	var cache *experiment.Cache
	if !*noCache && *cacheDir != "" {
		c, err := experiment.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(stderr, "experiments: cache disabled:", err)
		} else {
			cache = c
		}
	}
	eng := experiment.NewEngine(*workers, cache)
	// The registry feeds both the -timings hit/miss report and the
	// -telemetry-dir dump; attaching it is cheap, so it is always on.
	metrics := telemetry.NewRegistry()
	eng.AttachMetrics(metrics)

	cfg := experiment.Config{Scale: *scale, ICache: !*noICache, Engine: eng}
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			cfg.Benchmarks = append(cfg.Benchmarks, strings.TrimSpace(b))
		}
	}
	if !*quiet {
		// Cells complete on pool goroutines; serialize the hook.
		var mu sync.Mutex
		cfg.Progress = func(line string) {
			mu.Lock()
			fmt.Fprintln(stderr, "  "+line)
			mu.Unlock()
		}
	}

	var out io.Writer = stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	type job struct {
		id  string
		gen experiment.Generator
	}
	var jobs []job
	if *artifact != "" {
		gen, err := experiment.ByID(*artifact)
		if err != nil {
			return err
		}
		jobs = append(jobs, job{*artifact, gen})
	} else {
		for _, e := range experiment.All() {
			jobs = append(jobs, job{e.ID, e.Gen})
		}
	}

	// Generators run concurrently — each blocks on the shared engine, so
	// the worker pool bounds actual parallelism and cells shared between
	// artifacts run once. Tables print in artifact order regardless of
	// completion order, keeping output bytes deterministic.
	start := time.Now()
	type result struct {
		tab *experiment.Table
		err error
		dur time.Duration
	}
	results := make([]result, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			s := time.Now()
			jcfg := cfg
			jcfg.Artifact = j.id
			tab, err := j.gen(jcfg)
			results[i] = result{tab, err, time.Since(s)}
		}(i, j)
	}
	wg.Wait()

	for i, j := range jobs {
		r := results[i]
		if r.err != nil {
			return fmt.Errorf("%s: %w", j.id, r.err)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "%s done in %v\n", j.id, r.dur.Round(time.Millisecond))
		}
		if *markdown {
			r.tab.Markdown(out)
		} else {
			r.tab.Fprint(out)
		}
	}

	if !*quiet {
		st := eng.Stats()
		fmt.Fprintf(stderr, "%d cells (%d cache hits, %d shared) on %d workers in %v\n",
			st.CellsRun, st.CacheHits, eng.ResultStats().Hits, eng.Workers(),
			time.Since(start).Round(time.Millisecond))
	}
	if *timings {
		fmt.Fprintln(stderr, "slowest cells (total = cache probe + run):")
		for _, ct := range eng.Slowest(10) {
			tag := ""
			if ct.Cached {
				tag = " (cache)"
			}
			fmt.Fprintf(stderr, "  %8v  probe %7v  run %8v%s  %s\n",
				ct.Duration.Round(time.Millisecond),
				ct.Probe.Round(time.Millisecond),
				ct.Exec.Round(time.Millisecond),
				tag, ct.Key)
		}
		var ids []string
		for _, j := range jobs {
			ids = append(ids, j.id)
		}
		fmt.Fprintln(stderr, "cells per artifact (run / cache hit / cache miss / shared):")
		for _, line := range artifactReport(metrics, ids) {
			fmt.Fprintln(stderr, "  "+line)
		}
	}
	if *telDir != "" {
		if err := writeEngineMetrics(*telDir, metrics); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(stderr, "engine metrics -> %s\n",
				filepath.Join(*telDir, "engine_metrics.{csv,json}"))
		}
	}
	return nil
}

// artifactReport renders one per-artifact accounting line from the
// engine's metrics registry.
func artifactReport(reg *telemetry.Registry, ids []string) []string {
	var out []string
	for _, id := range ids {
		run := reg.Counter(experiment.MetricCellsRun + "." + id).Value()
		hit := reg.Counter(experiment.MetricCellCacheHit + "." + id).Value()
		miss := reg.Counter(experiment.MetricCellCacheMiss + "." + id).Value()
		memo := reg.Counter(experiment.MetricCellMemoHit + "." + id).Value()
		out = append(out, fmt.Sprintf("%-20s %4d / %4d / %4d / %4d", id, run, hit, miss, memo))
	}
	return out
}

// writeEngineMetrics dumps the registry snapshot as CSV and JSON.
func writeEngineMetrics(dir string, reg *telemetry.Registry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := reg.Snapshot()
	var csvBuf, jsonBuf strings.Builder
	csvBuf.WriteString("metric,value\n")
	vals := make(map[string]int64, len(snap))
	for _, s := range snap {
		fmt.Fprintf(&csvBuf, "%s,%d\n", s.Name, s.Value)
		vals[s.Name] = s.Value
	}
	data, err := json.MarshalIndent(vals, "", "  ")
	if err != nil {
		return err
	}
	jsonBuf.Write(data)
	jsonBuf.WriteByte('\n')
	if err := os.WriteFile(filepath.Join(dir, "engine_metrics.csv"), []byte(csvBuf.String()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "engine_metrics.json"), []byte(jsonBuf.String()), 0o644)
}

// defaultCacheDir places the cache under the user cache directory.
func defaultCacheDir() string {
	dir, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(dir, "instrsample", "experiments")
}
