package main

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chromeSmoke mirrors the trace-event JSON object form just enough to
// validate what `isamp -trace` writes: chrome://tracing requires every
// event to carry a name and a known phase, and non-metadata events to
// carry a timestamp and process/thread ids.
type chromeSmoke struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Ts   *float64        `json:"ts"`
		Pid  *int            `json:"pid"`
		Tid  *int            `json:"tid"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		ClockDomain   string `json:"clockDomain"`
		EventsTotal   uint64 `json:"eventsTotal"`
		EventsDropped uint64 `json:"eventsDropped"`
	} `json:"otherData"`
}

// TestTelemetrySmoke, a test `make race` pins by name: run a small
// instrumented benchmark through the real CLI path with -verify, -trace
// and -metrics attached, then validate the trace JSON against the
// trace-event schema and the metrics CSV against its declared header.
// Running under -race (make race does) also exercises the ring
// buffer's atomic head publication.
func TestTelemetrySmoke(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.csv")

	err := cmdBench([]string{
		"-instrument", "call-edge",
		"-variation", "full",
		"-interval", "500",
		"-scale", "0.02",
		"-verify",
		"-trace", tracePath,
		"-trace-cap", "4096",
		"-metrics", metricsPath,
		"-metrics-interval", "10000",
		"compress",
	})
	if err != nil {
		t.Fatalf("isamp bench: %v", err)
	}

	// Trace: must decode as a trace-event object with well-formed events.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeSmoke
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	if doc.OtherData.ClockDomain != "vm-cycles" {
		t.Errorf("clockDomain = %q, want vm-cycles", doc.OtherData.ClockDomain)
	}
	phases := map[string]bool{"B": true, "E": true, "i": true, "M": true}
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		if !phases[e.Ph] {
			t.Fatalf("event %d has phase %q, want B/E/i/M", i, e.Ph)
		}
		if e.Ph != "M" && (e.Ts == nil || e.Pid == nil || e.Tid == nil) {
			t.Fatalf("event %d (%s %q) missing ts/pid/tid", i, e.Ph, e.Name)
		}
	}
	if doc.OtherData.EventsTotal == 0 {
		t.Error("otherData.eventsTotal is zero")
	}

	// Metrics: header row must start with "cycle" and include the core
	// meter columns; every data row must match the header width.
	f, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("metrics CSV does not parse: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("metrics CSV has %d rows, want header plus captures", len(rows))
	}
	header := rows[0]
	if header[0] != "cycle" {
		t.Errorf("CSV header starts with %q, want cycle", header[0])
	}
	joined := strings.Join(header, ",")
	for _, col := range []string{"vm.checks", "vm.cycles", "vm.dup.residency_ppm", "vm.overhead.cycles"} {
		if !strings.Contains(joined, col) {
			t.Errorf("CSV header missing column %s (got %s)", col, joined)
		}
	}
	for i, row := range rows[1:] {
		if len(row) != len(header) {
			t.Errorf("CSV row %d has %d fields, header has %d", i+1, len(row), len(header))
		}
	}
}
