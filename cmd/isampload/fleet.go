package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/fabric"
	"instrsample/internal/load"
	"instrsample/internal/obs"
	"instrsample/internal/service"
)

// selfHostFleet boots an in-process experiment fabric — n isampd workers
// plus an isampfleet coordinator, all on ephemeral ports — and returns
// the coordinator's base URL, a killOne that hard-kills the last worker's
// HTTP side (the mid-run recovery leg), and a shutdown that drains
// everything and removes the cache directories.
func selfHostFleet(n, perWorker, queue int, mode obs.Mode, logf func(string, ...any)) (string, func(), func(), error) {
	var (
		daemons []*service.Server
		servers []*http.Server
		dirs    []string
		confs   []fabric.WorkerConf
	)
	cleanup := func() {
		for _, srv := range servers {
			srv.Close()
		}
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", "isampload-fleet-*")
		if err != nil {
			cleanup()
			return "", nil, nil, err
		}
		dirs = append(dirs, dir)
		cache, err := experiment.OpenCache(dir)
		if err != nil {
			cleanup()
			return "", nil, nil, err
		}
		s := service.New(service.Config{
			Workers:    perWorker,
			QueueDepth: queue,
			Cache:      cache,
			Obs:        obs.NewState(obs.Options{Mode: mode}),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return "", nil, nil, err
		}
		srv := &http.Server{Handler: s.Handler()}
		go srv.Serve(ln) //nolint:errcheck // closed by killOne or shutdown
		daemons = append(daemons, s)
		servers = append(servers, srv)
		confs = append(confs, fabric.WorkerConf{
			Name: fmt.Sprintf("w%d", i),
			URL:  "http://" + ln.Addr().String(),
		})
	}
	casDir, err := os.MkdirTemp("", "isampload-cas-*")
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	dirs = append(dirs, casDir)
	c, err := fabric.New(fabric.Config{
		Fleet:          fabric.FleetConf{Workers: confs},
		CacheDir:       casDir,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	coord := service.New(service.Config{
		Executor:   c,
		QueueDepth: queue,
		Obs:        obs.NewState(obs.Options{Mode: mode}),
	})
	front := &http.Server{Handler: coord.Handler()}
	go front.Serve(ln) //nolint:errcheck // closed in shutdown

	killOne := func() {
		if n < 2 {
			return
		}
		logf("fleet: killing worker w%d mid-run", n-1)
		servers[n-1].Close()
	}
	shutdown := func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Shutdown(dctx) //nolint:errcheck
		front.Shutdown(dctx) //nolint:errcheck
		for _, d := range daemons {
			d.Shutdown(dctx) //nolint:errcheck
		}
		cleanup()
	}
	return "http://" + ln.Addr().String(), killOne, shutdown, nil
}

// waitFleetUp polls the coordinator's /healthz until every worker
// reports up, so the soak never measures the health handshake.
func waitFleetUp(base string, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			var doc struct {
				Workers map[string]struct {
					Up bool `json:"up"`
				} `json:"workers"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if derr == nil {
				up := 0
				for _, w := range doc.Workers {
					if w.Up {
						up++
					}
				}
				if up == n {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d workers never came up within %s", n, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// fleetLeg is one side of the scaling A/B in the PR10 report.
type fleetLeg struct {
	Workers      int               `json:"workers"`
	WorkerKilled bool              `json:"worker_killed_mid_run"`
	Result       *load.Result      `json:"result"`
	Gates        []load.GateResult `json:"gates"`
}

// fleetReport is the BENCH_PR10-style document: the standard soak
// envelope with two legs and the scaling verdict.
type fleetReport struct {
	PR          int               `json:"pr"`
	Title       string            `json:"title"`
	Host        string            `json:"host"`
	Methodology string            `json:"methodology"`
	Mix         load.Mix          `json:"mix"`
	PlanOps     int               `json:"plan_ops"`
	PlanHash    string            `json:"plan_hash"`
	A           *fleetLeg         `json:"a_single_worker"`
	B           *fleetLeg         `json:"b_fleet"`
	Scaling     load.GateResult   `json:"scaling"`
	Gates       []load.GateResult `json:"gates"`
	Budget      string            `json:"budget"`
	BudgetMet   bool              `json:"budget_met"`
	Notes       string            `json:"notes,omitempty"`
}

// fleetABOptions carries the subset of run()'s flag state the A/B needs.
type fleetABOptions struct {
	workers   int
	perWorker int
	queue     int
	clients   int
	duration  time.Duration
	mode      obs.Mode
	gates     load.Gates
	minScale  float64
	pr        int
	title     string
	notes     string
	out       string
	logf      func(string, ...any)
}

// runFleetAB is the -fleet-ab path: the same seeded plan soaks a
// 1-worker fleet and an N-worker fleet (one worker hard-killed halfway
// through the N-worker leg to exercise requeue recovery), the per-leg
// gates run at full strength, and the fleet/single throughput ratio is
// gated against the scaling floor. The combined report is written to
// -o; any violated gate surfaces as errGates.
func runFleetAB(ctx context.Context, plan []load.Op, mix load.Mix, o fleetABOptions, stdout interface{ Write([]byte) (int, error) }) error {
	leg := func(workers int, kill bool) (*fleetLeg, error) {
		base, killOne, shutdown, err := selfHostFleet(workers, o.perWorker, o.queue, o.mode, o.logf)
		if err != nil {
			return nil, err
		}
		defer shutdown()
		if err := waitFleetUp(base, workers, 15*time.Second); err != nil {
			return nil, err
		}
		o.logf("fleet leg: %d workers on %s", workers, base)
		if kill {
			timer := time.AfterFunc(o.duration/2, killOne)
			defer timer.Stop()
		}
		res, err := load.Run(ctx, plan, load.Options{
			BaseURL:  base,
			Clients:  o.clients,
			Duration: o.duration,
			Logf:     o.logf,
		})
		if err != nil {
			return nil, err
		}
		return &fleetLeg{
			Workers:      workers,
			WorkerKilled: kill,
			Result:       res,
			Gates:        o.gates.Check(res),
		}, nil
	}

	o.logf("fleet A/B leg A: single worker")
	a, err := leg(1, false)
	if err != nil {
		return err
	}
	o.logf("fleet A/B leg B: %d workers, one killed mid-run", o.workers)
	b, err := leg(o.workers, o.workers > 1)
	if err != nil {
		return err
	}

	ratio := 0.0
	if a.Result.ThroughputJobsPerSec > 0 {
		ratio = b.Result.ThroughputJobsPerSec / a.Result.ThroughputJobsPerSec
	}
	scaling := load.GateResult{
		Name:  "fleet_scaling_ratio",
		Value: ratio,
		Bound: o.minScale,
		Op:    ">=",
		OK:    ratio >= o.minScale,
	}
	all := append(append([]load.GateResult{}, a.Gates...), b.Gates...)
	all = append(all, scaling)

	notes := o.notes
	if cpus := runtime.NumCPU(); cpus < o.workers+1 {
		hostNote := fmt.Sprintf("host has %d cpu(s) for %d workers + coordinator + harness in one "+
			"process; CPU-bound jobs cannot scale past the core count, so the scaling ratio here "+
			"measures coordination overhead, not parallel speedup — see BENCHMARKING.md (fleet scaling gate).",
			cpus, o.workers)
		if notes != "" {
			notes += " "
		}
		notes += hostNote
	}
	rep := &fleetReport{
		PR:    o.pr,
		Title: o.title,
		Host:  load.HostString(),
		Methodology: "Fleet scaling A/B via internal/load and internal/fabric: the same seeded plan " +
			"(plan_hash is the SHA-256 of the op sequence) soaks two self-hosted fleets — an " +
			"isampfleet coordinator over 1 isampd worker, then over N workers — for the same " +
			"duration with the same concurrent clients. Halfway through the N-worker leg one " +
			"worker's HTTP side is hard-killed: its in-flight cells must requeue on survivors " +
			"(at most once per worker, failures never memoized), so the zero-failed-jobs gate " +
			"doubles as the recovery check. fleet_scaling_ratio is leg-B throughput over leg-A " +
			"throughput; per-leg gates are the standard soak gates.",
		Mix:       mix,
		PlanOps:   len(plan),
		PlanHash:  load.PlanHash(plan),
		A:         a,
		B:         b,
		Scaling:   scaling,
		Gates:     all,
		Budget:    load.Describe(all),
		BudgetMet: load.AllOK(all),
		Notes:     notes,
	}
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		o.logf("report written to %s", o.out)
	}

	for _, l := range []*fleetLeg{a, b} {
		fmt.Fprintf(stdout, "fleet leg (%d workers%s): %d submitted, %d done, %d failed, %.1f jobs/s, p99 %dms\n",
			l.Workers, map[bool]string{true: ", one killed mid-run"}[l.WorkerKilled],
			l.Result.Counts.Submitted, l.Result.Counts.Done, l.Result.Counts.Failed,
			l.Result.ThroughputJobsPerSec, l.Result.JobLatencyMs.P99)
	}
	for _, g := range all {
		mark := "ok"
		if !g.OK {
			mark = "VIOLATED"
		}
		fmt.Fprintf(stdout, "gate %-24s %s %g\t(got %g)\t%s\n", g.Name, g.Op, g.Bound, g.Value, mark)
	}
	if !rep.BudgetMet {
		return errGates
	}
	fmt.Fprintln(stdout, "all gates passed")
	return nil
}
