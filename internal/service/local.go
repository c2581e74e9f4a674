package service

import (
	"sync"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/profile"
)

// localExecutor is the executor behind isampd (DESIGN.md §10): a bounded
// FIFO queue drained by a fixed worker pool, each job running as
// experiment-engine cells so identical jobs share the engine's bounded
// result store and the build-ID-keyed result cache, and jobs of one
// compiled configuration share its program store.
type localExecutor struct {
	workers int
	cache   *experiment.Cache

	s     *Server
	eng   *experiment.Engine
	queue chan *Job
	stop  chan struct{}
	wg    sync.WaitGroup
}

// Start sizes the queue from the server's QueueDepth and starts the
// worker pool.
func (p *localExecutor) Start(s *Server) {
	p.s = s
	p.eng = experiment.NewEngine(p.workers, p.cache)
	p.eng.AttachMetrics(s.reg)
	p.queue = make(chan *Job, s.cfg.QueueDepth)
	p.stop = make(chan struct{})
	p.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		go p.worker()
	}
}

// Admit enqueues without blocking; a full queue is the server's 429.
func (p *localExecutor) Admit(j *Job) bool {
	j.trace.Begin(obs.StageQueueWait, "")
	select {
	case p.queue <- j:
	default:
		return false
	}
	p.s.reg.Gauge(MetricQueueDepth).Add(1)
	// A job whose context ends while it waits resolves at once and is
	// skipped at pickup; a running one stops at its VM's next observation
	// point instead (runSpec), and run classifies the error.
	j.OnCancel(func() {
		if j.Status() == StatusQueued {
			j.Abort()
		}
	})
	return true
}

// Cache is the engine's result cache.
func (p *localExecutor) Cache() *experiment.Cache { return p.cache }

// Health adds nothing: the server's own rows describe a single daemon.
func (p *localExecutor) Health(map[string]any) {}

// Stop joins the worker pool.
func (p *localExecutor) Stop() {
	close(p.stop)
	p.wg.Wait()
	// Jobs a forced drain resolved while queued are still in the channel.
	for {
		select {
		case <-p.queue:
			p.s.reg.Gauge(MetricQueueDepth).Add(-1)
		default:
			return
		}
	}
}

// worker pulls jobs from the queue until Stop.
func (p *localExecutor) worker() {
	defer p.wg.Done()
	for {
		select {
		case j := <-p.queue:
			p.s.reg.Gauge(MetricQueueDepth).Add(-1)
			p.s.RecordDrain()
			p.run(j)
		case <-p.stop:
			return
		}
	}
}

// run executes one job through the experiment engine and resolves its
// terminal state.
func (p *localExecutor) run(j *Job) {
	if !j.Start(j.now()) {
		return // terminal, or cancelled while queued: OnCancel resolves it
	}
	s := p.s
	if l := s.cfg.Logger; l != nil {
		l.Info("job running", "job", j.id, "spec", j.spec.describe())
	}
	// The VM-trace decision is read at pickup: toggling to full applies to
	// jobs whose run starts after the toggle, and only jobs that carry a
	// span chain (mode was not off at accept) can attach one.
	full := j.trace != nil && s.cfg.Obs.Mode() == obs.ModeFull
	cells := []experiment.Cell{jobCell(p.eng, j.spec, j, full)}
	if j.spec.Overlap {
		cells = append(cells, jobCell(p.eng, j.spec.overlapSpec(), nil, false))
	}
	res, err := p.eng.DoContext(j.ctx, experiment.Config{Artifact: "service", Engine: p.eng, Owner: j.id}, cells)
	if err != nil {
		st, msg := j.outcome(err)
		j.Finish(st, msg, nil)
		return
	}
	var ref *experiment.CellResult
	if len(res) > 1 {
		ref = res[1]
	}
	j.Finish(StatusDone, "", BuildResult(j.spec, res[0], ref))
}

// BuildResult assembles a job's terminal payload from its engine cell
// result(s) — ref is the overlap reference cell, nil otherwise. The
// fleet coordinator resolves its CAS hits through it too, so a remote
// hit is byte-identical with a local run.
func BuildResult(spec JobSpec, main, ref *experiment.CellResult) *JobResult {
	res := &JobResult{
		Return:             main.Return,
		Output:             main.Output,
		Stats:              main.Stats,
		CodeSize:           main.CodeSize,
		CheckingCodeSize:   main.CheckingCodeSize,
		DuplicatedCodeSize: main.DuplicatedCodeSize,
	}
	for _, p := range main.Profiles {
		res.Profiles = append(res.Profiles, dumpProfile(p))
	}
	if spec.Verify {
		res.Oracle = &OracleVerdict{
			OK:         true, // a violation fails the cell before it gets here
			Events:     main.Aux["oracle-events"],
			ExpectedP1: main.Aux["oracle-expected-p1"],
		}
	}
	if ref != nil {
		n := len(main.Profiles)
		if len(ref.Profiles) < n {
			n = len(ref.Profiles)
		}
		for i := 0; i < n; i++ {
			res.Overlap = append(res.Overlap, ProfileOverlap{
				Name:    main.Profiles[i].Name,
				Percent: profile.Overlap(main.Profiles[i], ref.Profiles[i]),
			})
		}
	}
	return res
}
