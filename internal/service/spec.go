// Package service implements the profiling-as-a-service job surface
// behind cmd/isampd and cmd/isampfleet: a bounded-queue HTTP job API in
// front of an Executor. Jobs — assembly sources or named suite
// benchmarks, with the same variation/trigger/interval vocabulary as
// the isamp flags — are validated, admitted under backpressure (429 once
// the executor's queue is full, never unbounded buffering), and
// observable three ways: polled job JSON, a Server-Sent-Events stream
// of the telemetry metrics series while the job runs, and a Prometheus
// /metrics endpoint for the daemon itself. The local executor runs jobs
// on a worker pool through the experiment engine's memo table and
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

	"instrsample/internal/bench"
	"instrsample/internal/core"
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

// JobSpec is the POST /v1/jobs request body. Exactly one of Source and
// Bench selects the program; the remaining fields mirror the isamp
// run/bench flags (same names, same defaults), so any command line
// translates 1:1 into a job and produces byte-identical results.
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
	// vocabulary: call-edge, field-access, edge, block-count, path,
	// value, cct, cct-sampled.
	Instrument []string `json:"instrument,omitempty"`
	// Variation selects the framework transform: "" (none), full,
	// partial, nodup, hybrid.
	Variation string `json:"variation,omitempty"`
	// Yieldopt applies the yieldpoint optimization (requires Variation).
	Yieldopt bool `json:"yieldopt,omitempty"`
	// Trigger is the trigger kind: counter (default), perthread, timer,
	// random, never, always.
	Trigger string `json:"trigger,omitempty"`
	// Interval is the counter-family sample interval (default 1000).
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

// withDefaults returns the spec with isamp's flag defaults filled in.
func (s JobSpec) withDefaults() JobSpec {
	if s.Scale == 0 {
		s.Scale = 0.1
	}
	if s.Trigger == "" {
		s.Trigger = "counter"
	}
	if s.Interval == 0 {
		s.Interval = 1000
	}
	if s.Period == 0 {
		s.Period = 3330000
	}
	if s.EventsInterval == 0 {
		s.EventsInterval = 1 << 16
	}
	if s.EventsInterval < MinEventsInterval {
		s.EventsInterval = MinEventsInterval
	}
	return s
}

// Valid reports whether the daemon would accept this spec: it applies
// the same defaulting and validation as POST /v1/jobs. The load harness
// uses it to guarantee generated traffic never manufactures 400s
// (DESIGN.md §11).
func (s JobSpec) Valid() error { return s.withDefaults().validate() }

// CellKey returns the spec's canonical measurement-cell key after
// defaulting — the identity the memo table, the result cache and the
// fleet's single-flight/sharding layers all agree on. Two specs with
// equal CellKeys produce byte-identical results on the same build.
func (s JobSpec) CellKey() string { return s.withDefaults().cellKey() }

// validInstr matches experiment.OptsSpec's instrumenter vocabulary.
var validInstr = map[string]bool{
	"call-edge": true, "field-access": true, "edge": true,
	"block-count": true, "path": true, "value": true,
	"cct": true, "cct-sampled": true, "receiver": true,
}

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
	case s.Interval < 0:
		return fmt.Errorf("interval must be positive")
	case s.TimeoutMs < 0:
		return fmt.Errorf("timeout_ms must be non-negative")
	}
	if s.Bench != "" && s.Bench != "resonant" {
		if _, err := bench.ByName(s.Bench); err != nil {
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
		if !validInstr[name] {
			return fmt.Errorf("unknown instrumentation %q", name)
		}
	}
	switch s.Variation {
	case "", "full", "partial", "nodup", "hybrid":
	default:
		return fmt.Errorf("unknown variation %q (want full, partial, nodup, hybrid)", s.Variation)
	}
	if s.Yieldopt && s.Variation == "" {
		return fmt.Errorf("yieldopt requires variation")
	}
	switch s.Trigger {
	case "counter", "perthread", "timer", "random", "never", "always":
	default:
		return fmt.Errorf("unknown trigger %q (want counter, perthread, timer, random, never, always)", s.Trigger)
	}
	if s.Overlap && len(s.Instrument) == 0 {
		return fmt.Errorf("overlap requires instrument")
	}
	return nil
}

// optsSpec maps the job to the experiment package's canonical compile
// description — the same one the experiment cells key on.
func (s JobSpec) optsSpec() experiment.OptsSpec {
	o := experiment.OptsSpec{
		Instr:  append([]string(nil), s.Instrument...),
		Verify: s.Verify,
	}
	var v core.Variation
	switch s.Variation {
	case "full":
		v = core.FullDuplication
	case "partial":
		v = core.PartialDuplication
	case "nodup":
		v = core.NoDuplication
	case "hybrid":
		v = core.Hybrid
	default:
		return o
	}
	o.Framework = &core.Options{Variation: v, YieldpointOpt: s.Yieldopt}
	return o
}

// triggerSpec maps the job's trigger selection to the experiment
// package's pure-data trigger description, using isamp's defaulting
// (random jitter = interval/10, seed 1).
func (s JobSpec) triggerSpec() experiment.TriggerSpec {
	switch s.Trigger {
	case "perthread":
		return experiment.TriggerSpec{Kind: "perthread", Interval: s.Interval}
	case "timer":
		return experiment.TimerTrigger(s.Period)
	case "random":
		j := s.Jitter
		if j == 0 {
			j = s.Interval / 10
		}
		return experiment.RandomizedTrigger(s.Interval, j, 1)
	case "never":
		return experiment.NeverTrigger()
	case "always":
		return experiment.AlwaysTrigger()
	default:
		return experiment.CounterTrigger(s.Interval)
	}
}

// cellKey canonically identifies the job's measurement for the engine's
// memo table and the on-disk cache. The "job" prefix keeps service cells
// in a separate namespace from the experiment artifacts' cells (whose
// results predate the Return/Output fields). The SSE events cadence is
// deliberately not part of the key: it changes what a client observes
// mid-run, never the result.
func (s JobSpec) cellKey() string {
	var prog string
	switch {
	case s.Source != "":
		sum := sha256.Sum256([]byte(s.Source))
		prog = "src=" + hex.EncodeToString(sum[:16])
	case s.Scenario != nil:
		prog = fmt.Sprintf("scn=%s/%d", s.Scenario.SpecHash()[:16], s.ScenarioIndex)
	default:
		prog = fmt.Sprintf("bench=%s scale=%g", s.Bench, s.Scale)
	}
	return fmt.Sprintf("job %s icache=%v max=%d %s %s",
		prog, s.ICache, s.MaxCycles, s.optsSpec().Key(), s.triggerSpec().Key())
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
