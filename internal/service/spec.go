// Package service implements the profiling-as-a-service job surface
// behind cmd/isampd and cmd/isampfleet: a bounded-queue HTTP job API in
// front of an Executor. Jobs — assembly sources or named suite
// benchmarks, with the same variation/trigger/interval vocabulary as
// the isamp flags — are validated, admitted under backpressure (429 once
// the executor's queue is full, never unbounded buffering), and
// observable three ways: polled job JSON, a Server-Sent-Events stream
// of the telemetry metrics series while the job runs, and a Prometheus
// /metrics endpoint for the daemon itself. The local executor runs jobs
// on a worker pool through the experiment engine's result store and
// build-ID-keyed result cache; the fleet executor (internal/fabric) runs
// them on isampd workers. Cancellation (DELETE, client timeout, daemon
// drain) ends the job's context; locally that reaches a vm.Cancel token
// polled at observation points, so a running job stops within one
// observation interval. See DESIGN.md §10.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"instrsample/internal/experiment"
	"instrsample/internal/scenario"
)

// Limits every job must respect; requests outside them are rejected with
// 400 before anything is queued.
const (
	// MaxSourceBytes bounds the assembly source of a source job.
	MaxSourceBytes = 1 << 20
	// MaxScale bounds benchmark scale.
	MaxScale = 10
	// MinEventsInterval floors the SSE metrics cadence (in VM cycles) so
	// a job cannot ask for a per-cycle capture storm.
	MinEventsInterval = 1 << 10
)

// JobSpec is the POST /v1/jobs request body. Exactly one of Source,
// Bench and Scenario selects the program; the remaining fields are the
// isamp run/bench flags (same names, same defaults), and both surfaces
// map them through internal/experiment's one vocabulary and run them
// through its one run path (DESIGN.md §10). Any command line therefore
// translates 1:1 into a job that reports the same return value, output,
// Stats, code sizes and profile entries (TestCLIMatchesJob in cmd/isamp
// checks this); the job's profiles are ProfileDumps, without the labels
// isamp prints. Of the flags that shape a run, only -trigger
// faulty-timer, a fault-injection trigger, is CLI-only.
type JobSpec struct {
	// Source is an assembly program (isamp run's .vasm contents).
	Source string `json:"source,omitempty"`
	// Bench names a suite benchmark (isamp bench's argument; "resonant"
	// is also accepted).
	Bench string `json:"bench,omitempty"`
	// Scenario selects a program from a seeded workload family
	// (internal/scenario): the family spec is embedded verbatim and
	// ScenarioIndex picks the member. Mutually exclusive with Source and
	// Bench. The cell key carries the family's spec hash, so identical
	// family specs share cache entries across jobs and machines.
	Scenario *scenario.Family `json:"scenario,omitempty"`
	// ScenarioIndex is the family member to run (default 0; must be in
	// [0, Scenario.Count)).
	ScenarioIndex int `json:"scenario_index,omitempty"`
	// Scale is the benchmark scale (bench jobs only; default 0.1).
	Scale float64 `json:"scale,omitempty"`
	// Instrument lists instrumentations, the -instrument flag's
	// vocabulary (experiment.NewInstrumenter): call-edge, field-access,
	// edge, block-count, path, value, cct, cct-sampled, receiver.
	Instrument []string `json:"instrument,omitempty"`
	// Variation selects the framework transform: "" (none), full,
	// partial, nodup, hybrid.
	Variation string `json:"variation,omitempty"`
	// Yieldopt applies the yieldpoint optimization (requires Variation).
	Yieldopt bool `json:"yieldopt,omitempty"`
	// Trigger is the trigger kind: counter (default), perthread, timer,
	// random, never, always.
	Trigger string `json:"trigger,omitempty"`
	// Interval is the sample interval of counter, perthread and random
	// (default 1000; must not be negative).
	Interval int64 `json:"interval,omitempty"`
	// Period is the timer trigger period in cycles (default 3330000).
	Period uint64 `json:"period,omitempty"`
	// Jitter is the randomized trigger jitter (default Interval/10).
	Jitter int64 `json:"jitter,omitempty"`
	// ICache enables the instruction-cache model.
	ICache bool `json:"icache,omitempty"`
	// Verify attaches the runtime invariant oracle; the job fails on any
	// violation and the result carries the oracle verdict.
	Verify bool `json:"verify,omitempty"`
	// Overlap additionally runs the exhaustive (never-trigger, no
	// framework) reference configuration and reports the paper's overlap
	// percentage between each sampled profile and its exhaustive
	// counterpart. Requires Instrument.
	Overlap bool `json:"overlap,omitempty"`
	// EventsInterval is the SSE metrics capture cadence in VM cycles
	// (default 65536, floor MinEventsInterval).
	EventsInterval uint64 `json:"events_interval,omitempty"`
	// MaxCycles caps the simulated run (default the VM's own 1<<40).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// TimeoutMs is a wall-clock deadline for the job; exceeding it fails
	// the job (it does not count as a cancellation).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// withDefaults returns the spec with isamp's flag defaults filled in;
// both read experiment's Default constants.
func (s JobSpec) withDefaults() JobSpec {
	if s.Scale == 0 {
		s.Scale = experiment.DefaultScale
	}
	if s.Trigger == "" {
		s.Trigger = "counter"
	}
	if s.Interval == 0 {
		s.Interval = experiment.DefaultInterval
	}
	if s.Period == 0 {
		s.Period = experiment.DefaultPeriod
	}
	if s.EventsInterval == 0 {
		s.EventsInterval = experiment.DefaultCadence
	}
	if s.EventsInterval < MinEventsInterval {
		s.EventsInterval = MinEventsInterval
	}
	return s
}

// Valid reports whether the daemon would accept this spec: it applies
// the same defaulting and validation as POST /v1/jobs, so a test can
// check a spec without a server.
func (s JobSpec) Valid() error { return s.withDefaults().validate() }

// CellKey returns the spec's canonical measurement-cell key after
// defaulting — the identity the memo table, the result cache and the
// fleet's single-flight/sharding layers all agree on. Two specs with
// equal CellKeys produce byte-identical results on the same build.
func (s JobSpec) CellKey() string { return s.withDefaults().cellKey() }

// validate rejects malformed specs. It assumes withDefaults has run.
func (s JobSpec) validate() error {
	nProg := 0
	for _, set := range []bool{s.Source != "", s.Bench != "", s.Scenario != nil} {
		if set {
			nProg++
		}
	}
	switch {
	case nProg == 0:
		return fmt.Errorf("one of source, bench or scenario is required")
	case nProg > 1:
		return fmt.Errorf("source, bench and scenario are mutually exclusive")
	case len(s.Source) > MaxSourceBytes:
		return fmt.Errorf("source exceeds %d bytes", MaxSourceBytes)
	case s.Scale < 0 || s.Scale > MaxScale:
		return fmt.Errorf("scale %g out of range (0, %d]", s.Scale, MaxScale)
	case s.TimeoutMs < 0:
		return fmt.Errorf("timeout_ms must be non-negative")
	}
	if s.Bench != "" {
		if _, err := experiment.BenchBuilder(s.Bench); err != nil {
			return err
		}
	}
	if s.Scenario != nil {
		if err := s.Scenario.Validate(); err != nil {
			return err
		}
		if s.ScenarioIndex < 0 || s.ScenarioIndex >= s.Scenario.Count {
			return fmt.Errorf("scenario_index %d out of range [0, %d)", s.ScenarioIndex, s.Scenario.Count)
		}
	} else if s.ScenarioIndex != 0 {
		return fmt.Errorf("scenario_index requires scenario")
	}
	for _, name := range s.Instrument {
		if _, err := experiment.NewInstrumenter(name); err != nil {
			return err
		}
	}
	if s.Trigger == "faulty-timer" {
		return fmt.Errorf("trigger faulty-timer is CLI-only")
	}
	if _, _, err := s.specs(); err != nil {
		return err
	}
	if s.Overlap && len(s.Instrument) == 0 {
		return fmt.Errorf("overlap requires instrument")
	}
	return nil
}

// specs maps the job to the experiment package's compile and trigger
// descriptions, the ones the experiment cells key on, with isamp's
// defaulting.
func (s JobSpec) specs() (experiment.OptsSpec, experiment.TriggerSpec, error) {
	fw, err := experiment.Framework(s.Variation, s.Yieldopt)
	if err != nil {
		return experiment.OptsSpec{}, experiment.TriggerSpec{}, err
	}
	t, err := experiment.NamedTrigger(s.Trigger, s.Interval, s.Period, s.Jitter)
	o := experiment.OptsSpec{
		Instr:     append([]string(nil), s.Instrument...),
		Framework: fw,
		Verify:    s.Verify,
	}
	return o, t, err
}

// cellKey canonically identifies the job's measurement for the engine's
// memo table and the on-disk cache. The "job" prefix keeps service cells
// in a separate namespace from the experiment artifacts' cells (whose
// results predate the Return/Output fields). The SSE events cadence is
// deliberately not part of the key: it changes what a client observes
// mid-run, never the result.
func (s JobSpec) cellKey() string {
	o, t, _ := s.specs() // validate has accepted the names
	return fmt.Sprintf("job %s icache=%v max=%d %s %s",
		s.programID(), s.ICache, s.MaxCycles, o.Key(), t.Key())
}

// programID identifies the job's program: a source hash, a scenario
// family hash and index, or a benchmark and scale. It prefixes the cell
// key and keys the engine's program store.
func (s JobSpec) programID() string {
	switch {
	case s.Source != "":
		sum := sha256.Sum256([]byte(s.Source))
		return "src=" + hex.EncodeToString(sum[:16])
	case s.Scenario != nil:
		return fmt.Sprintf("scn=%s/%d", s.Scenario.SpecHash()[:16], s.ScenarioIndex)
	}
	return fmt.Sprintf("bench=%s scale=%g", s.Bench, s.Scale)
}

// overlapSpec is the exhaustive reference configuration an Overlap job
// compares against: same program and instrumentations, no framework,
// never-firing trigger, no oracle.
func (s JobSpec) overlapSpec() JobSpec {
	ref := s
	ref.Variation, ref.Yieldopt = "", false
	ref.Trigger, ref.Interval, ref.Jitter, ref.Period = "never", 0, 0, 0
	ref.Verify, ref.Overlap = false, false
	return ref.withDefaults()
}

// overlapKey is the reference configuration's cell key.
func (s JobSpec) overlapKey() string { return s.overlapSpec().cellKey() }

// describe renders a short human label for logs and the job JSON.
func (s JobSpec) describe() string {
	prog := s.Bench
	switch {
	case s.Source != "":
		prog = "source"
	case s.Scenario != nil:
		prog = fmt.Sprintf("scenario:%s/%d", s.Scenario.Name, s.ScenarioIndex)
	}
	parts := []string{prog}
	if len(s.Instrument) > 0 {
		parts = append(parts, strings.Join(s.Instrument, "+"))
	}
	if s.Variation != "" {
		parts = append(parts, s.Variation)
	}
	parts = append(parts, s.Trigger)
	return strings.Join(parts, " ")
}
