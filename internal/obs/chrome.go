package obs

import (
	"encoding/json"
	"io"
	"strconv"

	"instrsample/internal/telemetry"
)

// Merged Chrome trace export: wall-clock service spans (pid 1) and the
// VM's cycle-domain events (pid 2) on one chrome://tracing timeline.
//
// The two clock domains meet through per-run alignment. The service
// records the wall-clock window [t0, t1] around v.Run() and the run's
// total cycle count C; VM event cycle c then maps to wall time
// t0 + c·(t1−t0)/C. The mapping is linear — it assumes cycles advance
// uniformly across the run, which is the same idealization the
// cycle-cost model itself makes — and exact at both endpoints, so VM
// events always land inside their vm-run span.

// pid assignments in the merged document.
const (
	chromePidService = 1
	chromePidVM      = 2
)

// spanEvent converts one service span to a complete ("X") trace event.
// Timestamps shift to µs relative to baseNs so the document starts near
// zero (chrome://tracing renders absolute UnixNano poorly).
func spanEvent(s Span, baseNs int64) telemetry.ChromeEvent {
	ce := telemetry.ChromeEvent{
		Name: s.Stage.String(),
		Cat:  "service",
		Ph:   "X",
		Ts:   uint64((s.StartNs - baseNs) / 1e3),
		Pid:  chromePidService,
		Tid:  0,
	}
	args := map[string]any{
		"job":         s.Job,
		"duration_ns": s.EndNs - s.StartNs,
	}
	if s.Cause != "" {
		args["cause"] = s.Cause
	}
	ce.Args = args
	if s.Stage == StageTerminal {
		// Instant event: terminal has no extent.
		ce.Ph, ce.S = "i", "p"
		return ce
	}
	ce.Dur = uint64(s.EndNs-s.StartNs) / 1e3
	return ce
}

// WriteJobChromeTrace writes one job's merged trace: its service span
// chain, plus — when the run executed at ModeFull — the VM's events
// aligned to wall time. The document is Chrome trace-event JSON (object
// format) with span/VM drop accounting in otherData.
func WriteJobChromeTrace(w io.Writer, t *JobTrace) error {
	spans := t.Spans()
	var baseNs int64
	if len(spans) > 0 {
		baseNs = spans[0].StartNs
	}
	events := []telemetry.ChromeEvent{
		{Name: "process_name", Ph: "M", Pid: chromePidService,
			Args: map[string]any{"name": "isampd service"}},
		{Name: "thread_name", Ph: "M", Pid: chromePidService, Tid: 0,
			Args: map[string]any{"name": "job " + t.Job()}},
	}
	for _, s := range spans {
		events = append(events, spanEvent(s, baseNs))
	}
	other := map[string]any{
		"job":         t.Job(),
		"clockDomain": "wall-ns (service) + vm-cycles aligned per run",
		"spanCount":   len(spans),
	}
	if r := t.VM(); r != nil {
		events = append(events, telemetry.ChromeEvent{
			Name: "process_name", Ph: "M", Pid: chromePidVM,
			Args: map[string]any{"name": "instrsample vm"},
		})
		for tid := 0; tid < r.Threads; tid++ {
			events = append(events, telemetry.ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: chromePidVM, Tid: tid,
				Args: map[string]any{"name": "vm thread " + strconv.Itoa(tid)},
			})
		}
		for _, e := range r.Events {
			events = append(events, e.Chrome(chromePidVM))
		}
		other["vmEventsTotal"] = r.Total
		other["vmEventsDropped"] = r.Drops
		other["vmCycles"] = r.Cycles
		other["vmWallNs"] = r.EndNs - r.StartNs
	}
	doc := telemetry.ChromeDoc{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData:       other,
	}
	return json.NewEncoder(w).Encode(doc)
}

// alignCycles returns the cycle→µs mapping for a run that executed
// cycles VM cycles across the wall window [startNs, endNs], emitting
// timestamps relative to baseNs like the service spans. Degenerate
// windows (zero cycles, or a window too fast for the wall clock to
// resolve) pin every event to the window start.
func alignCycles(startNs, endNs int64, cycles uint64, baseNs int64) func(uint64) uint64 {
	span := endNs - startNs
	if span < 0 {
		span = 0
	}
	return func(c uint64) uint64 {
		ns := startNs - baseNs
		if cycles > 0 {
			ns += int64(float64(c) * float64(span) / float64(cycles))
		}
		if ns < 0 {
			ns = 0
		}
		return uint64(ns) / 1e3
	}
}
