// Command isampfleet is the distributed experiment fabric's coordinator:
// it serves the single daemon's job surface — the same service.Server
// isampd runs, with the fleet executor in place of the local worker
// pool — over a fleet of isampd workers, adding cluster-wide
// single-flight, one fleet queue whose cells prefer their rendezvous
// owner but run on any free worker slot, propagated backpressure, and a
// network content-addressed result store shared by every node
// (DESIGN.md §15).
//
//	isampfleet -config fleet.json                # coordinate the fleet
//	isampfleet -worker http://h1:8347 \
//	           -worker http://h2:8347            # inline topology
//	isampfleet -cache-dir /var/cache/fleet \
//	           -cache-max-bytes 104857600        # bounded CAS replica
//	isampfleet -version                          # print the build ID
//
//	POST   /v1/jobs             submit (dedup, queue, 429 + Retry-After)
//	GET    /v1/jobs/{id}        job status, result, attribution ledger
//	GET    /v1/jobs/{id}/events relayed live metrics stream (SSE)
//	GET    /v1/jobs/{id}/trace  the job's Chrome trace (coordinator spans)
//	DELETE /v1/jobs/{id}        cancel (duplicates detach; last rider aborts)
//	GET    /v1/obs              observability mode and span-ring accounting
//	PUT    /v1/obs              flip the mode at runtime: {"mode":"off|spans|full"}
//	GET    /v1/cas/{addr}       read the coordinator's CAS replica
//	PUT    /v1/cas/{addr}       replicate a result (integrity-checked)
//	GET    /healthz             fleet state: per-worker health + accounting
//	GET    /metrics             Prometheus text exposition
//
// The fleet config file is the JSON form of fabric.FleetConf:
//
//	{"workers": [{"name": "w0", "url": "http://127.0.0.1:8347"}]}
//
// SIGHUP re-reads -config and applies it hot: added workers join
// immediately, removed workers drain (they finish their in-flight cells,
// take no new work, and leave once idle — no job is dropped). SIGTERM or
// SIGINT starts the graceful drain, mirroring isampd.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/fabric"
	"instrsample/internal/obs"
	"instrsample/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "isampfleet:", err)
		os.Exit(1)
	}
}

// workerList collects repeated -worker flags.
type workerList []string

func (w *workerList) String() string     { return strings.Join(*w, ",") }
func (w *workerList) Set(v string) error { *w = append(*w, v); return nil }

// loadConf reads the fleet config: the -config file when set, otherwise
// the inline -worker URLs (named w0, w1, ... in order).
func loadConf(path string, inline workerList) (fabric.FleetConf, error) {
	var fc fabric.FleetConf
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return fc, err
		}
		if err := json.Unmarshal(data, &fc); err != nil {
			return fc, fmt.Errorf("%s: %w", path, err)
		}
		return fc, nil
	}
	for i, url := range inline {
		fc.Workers = append(fc.Workers, fabric.WorkerConf{Name: fmt.Sprintf("w%d", i), URL: url})
	}
	return fc, nil
}

// run is main minus the process concerns: flags in args, lifetime bounded
// by ctx (cancellation plays the role of SIGTERM). onReady, when non-nil,
// receives the bound address once the listener is up.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("isampfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var workers workerList
	fs.Var(&workers, "worker", "worker base URL (repeatable; alternative to -config)")
	var (
		addr     = fs.String("addr", "127.0.0.1:8447", "listen address (port 0 picks an ephemeral port)")
		confPath = fs.String("config", "", "fleet config JSON (fabric.FleetConf); re-read on SIGHUP")
		slots    = fs.Int("slots", 2, "concurrent dispatches per worker")
		queue    = fs.Int("queue", 256, "queued-cell bound; past it the front door answers 429")
		cacheDir = fs.String("cache-dir", "", "CAS replica directory (empty disables the replica)")
		cacheMax = fs.Int64("cache-max-bytes", 0, "CAS replica byte budget with LRU eviction (0 = unbounded)")
		health   = fs.Duration("health-interval", 500*time.Millisecond, "per-worker health probe cadence")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-drain budget after SIGTERM/SIGINT")
		obsMode  = fs.String("obs", "spans", "observability mode: off, spans, full")
		quiet    = fs.Bool("q", false, "suppress fleet state log lines")
		version  = fs.Bool("version", false, "print the coordinator's build ID and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, experiment.BuildID())
		return nil
	}
	fc, err := loadConf(*confPath, workers)
	if err != nil {
		return err
	}
	if len(fc.Workers) == 0 {
		return fmt.Errorf("no workers: give -config or at least one -worker")
	}
	mode, err := obs.ParseMode(*obsMode)
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "isampfleet: "+format+"\n", a...) }
	c, err := fabric.New(fabric.Config{
		Fleet:          fc,
		Slots:          *slots,
		CacheDir:       *cacheDir,
		CacheMaxBytes:  *cacheMax,
		HealthInterval: *health,
	})
	if err != nil {
		return err
	}
	scfg := service.Config{
		Executor:   c,
		QueueDepth: *queue,
		Obs:        obs.NewState(obs.Options{Mode: mode}),
	}
	if !*quiet {
		scfg.Logf = logf
	}
	s := service.New(scfg)

	// SIGHUP: hot-reload the fleet topology from -config.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			fc, err := loadConf(*confPath, workers)
			if err != nil {
				logf("reload failed: %v", err)
				continue
			}
			if len(fc.Workers) == 0 {
				logf("reload refused: config has no workers")
				continue
			}
			logf("reloading fleet config (%d workers)", len(fc.Workers))
			c.Reload(fc)
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("coordinating %d workers on http://%s (build %s, %d slots/worker, queue %d)",
		len(fc.Workers), ln.Addr(), experiment.BuildID(), *slots, *queue)
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

	logf("draining (budget %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if derr := s.Shutdown(dctx); derr != nil {
		logf("drain budget exceeded; in-flight cells cancelled")
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := srv.Shutdown(hctx); err != nil {
		srv.Close()
	}
	logf("shutdown complete")
	return nil
}
