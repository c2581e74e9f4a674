// Command isampd is the profiling-as-a-service daemon: a long-running
// HTTP server that accepts instrumentation jobs (assembly sources,
// suite benchmarks, or scenario workload-family members — all with the
// isamp flag vocabulary), runs them on a
// bounded worker pool over the experiment engine's stores of results and
// compiled programs, each bounded by a constant byte budget, and the
// on-disk cache, and exposes results, live metrics streams and a
// Prometheus endpoint.
//
//	isampd                             # listen on 127.0.0.1:8347
//	isampd -addr 127.0.0.1:0 -j 8      # ephemeral port, 8 workers
//	isampd -cache-dir ~/.cache/isamp   # share isamp/experiments results
//	isampd -obs spans                  # span chains + attribution ledgers
//	isampd -obs full -trace-dir /tmp/t # + per-run VM traces, dumped per job
//	isampd -debug-addr 127.0.0.1:6060  # net/http/pprof self-profiling
//	isampd -version                    # print the cache-keying build ID
//
//	POST   /v1/jobs             submit a job (429 + Retry-After when full)
//	GET    /v1/jobs/{id}        job status, result and attribution ledger
//	GET    /v1/jobs/{id}/events live metrics stream (Server-Sent Events)
//	GET    /v1/jobs/{id}/trace  merged Chrome trace (service spans + VM events)
//	DELETE /v1/jobs/{id}        cancel (stops within one observation interval)
//	GET    /v1/obs              observability mode and span-ring accounting
//	PUT    /v1/obs              flip the mode at runtime: {"mode":"off|spans|full"}
//	GET    /healthz             liveness and drain state
//	GET    /metrics             Prometheus text exposition
//
// SIGTERM/SIGINT starts the graceful drain (DESIGN.md §10): submissions
// get 503, in-flight jobs get the -drain budget to finish, stragglers
// are cancelled at their next observation point, then the listener
// closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "isampd:", err)
		os.Exit(1)
	}
}

// run is main minus the process concerns: flags in args, output on the
// given writers, lifetime bounded by ctx (cancellation plays the role of
// SIGTERM). onReady, when non-nil, receives the bound address once the
// listener is up — tests use it instead of parsing the log line.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("isampd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8347", "listen address (port 0 picks an ephemeral port)")
		workers  = fs.Int("j", runtime.GOMAXPROCS(0), "worker-pool size: jobs running concurrently")
		queue    = fs.Int("queue", 64, "accepted-job queue depth; a full queue answers 429")
		cacheDir = fs.String("cache-dir", "", "on-disk result cache directory (empty disables)")
		cacheMax = fs.Int64("cache-max-bytes", 0, "result cache byte budget with LRU eviction (0 = unbounded)")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-drain budget after SIGTERM/SIGINT")
		quiet    = fs.Bool("q", false, "suppress per-job log lines")
		obsMode  = fs.String("obs", "off", "observability mode: off, spans (job span chains + ledgers), full (+ per-run VM traces)")
		traceDir = fs.String("trace-dir", "", "dump each finished traced job's merged Chrome trace here (empty disables)")
		logLevel = fs.String("log-level", "", "structured log level: debug, info, warn or error (empty disables slog output)")
		debug    = fs.String("debug-addr", "", "listen address for net/http/pprof self-profiling (empty disables)")
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
	if *cacheDir != "" {
		c, err := experiment.OpenCache(*cacheDir)
		if err == nil && *cacheMax > 0 {
			err = c.SetMaxBytes(*cacheMax)
		}
		if err != nil {
			fmt.Fprintln(stderr, "isampd: cache disabled:", err)
		} else {
			cache = c
		}
	}
	mode, err := obs.ParseMode(*obsMode)
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "isampd: "+format+"\n", a...) }
	scfg := service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Cache:      cache,
		Obs:        obs.NewState(obs.Options{Mode: mode}),
		TraceDir:   *traceDir,
	}
	if !*quiet {
		scfg.Logf = logf
	}
	if *logLevel != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			return fmt.Errorf("-log-level: %w", err)
		}
		scfg.Logger = slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: lvl}))
	}
	s := service.New(scfg)

	// -debug-addr mounts net/http/pprof on its own listener so the
	// daemon can profile itself without exposing pprof on the job API.
	if *debug != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		defer dln.Close()
		logf("pprof on http://%s/debug/pprof/", dln.Addr())
		dsrv := &http.Server{Handler: dmux}
		go dsrv.Serve(dln) //nolint:errcheck // closed with the listener at exit
		defer dsrv.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("listening on http://%s (build %s, %d workers, queue %d, obs %s)",
		ln.Addr(), experiment.BuildID(), *workers, *queue, mode)
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain (DESIGN.md §10): refuse new jobs, give in-flight ones the
	// budget, hard-cancel past it, then close the HTTP side. The daemon
	// keeps answering status/metrics reads until every job is resolved.
	logf("draining (budget %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if derr := s.Shutdown(dctx); derr != nil {
		logf("drain budget exceeded; in-flight jobs cancelled")
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := srv.Shutdown(hctx); err != nil {
		srv.Close()
	}
	logf("shutdown complete")
	return nil
}
