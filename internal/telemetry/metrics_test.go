package telemetry_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"instrsample/internal/telemetry"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := telemetry.NewRegistry()
	c := r.Counter("a")
	c.Add(3)
	if r.Counter("a") != c {
		t.Error("second lookup returned a different counter")
	}
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	g := r.Gauge("g")
	g.Set(-7)
	g.Add(2)
	if g.Value() != -5 {
		t.Errorf("gauge = %d, want -5", g.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("a")
}

func TestHistogramBuckets(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.Histogram("h", []uint64{1, 2, 4})
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 7 || h.Sum() != 115 {
		t.Fatalf("count=%d sum=%d, want 7/115", h.Count(), h.Sum())
	}
	got := h.Buckets()
	want := []telemetry.Bucket{
		{Le: 1, N: 2},     // 0, 1
		{Le: 2, N: 1},     // 2
		{Le: 4, N: 2},     // 3, 4
		{Inf: true, N: 2}, // 5, 100
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("buckets = %+v, want %+v", got, want)
	}
}

func TestExpBuckets(t *testing.T) {
	got := telemetry.ExpBuckets(1, 4)
	if !reflect.DeepEqual(got, []uint64{1, 2, 4, 8}) {
		t.Errorf("ExpBuckets(1,4) = %v", got)
	}
}

func TestSnapshotSortedAndFlattened(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("z.count").Add(9)
	r.Gauge("a.gauge").Set(1)
	r.Histogram("m.hist", []uint64{10}).Observe(3)
	snap := r.Snapshot()
	var names []string
	for _, s := range snap {
		names = append(names, s.Name)
	}
	want := []string{
		"a.gauge",
		"m.hist.count", "m.hist.sum", "m.hist.le.10", "m.hist.le.inf",
		"z.count",
	}
	// Snapshot promises sorted order over the flattened names.
	wantSorted := append([]string(nil), want...)
	if !sortedEqual(names, wantSorted) {
		t.Errorf("snapshot names = %v, want the set %v sorted", names, want)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("snapshot not sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}

func sortedEqual(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	set := map[string]bool{}
	for _, n := range want {
		set[n] = true
	}
	for _, n := range got {
		if !set[n] {
			return false
		}
	}
	return true
}

func TestSeriesCSVAndJSON(t *testing.T) {
	r := telemetry.NewRegistry()
	c := r.Counter("events")
	s := telemetry.NewSeries(r)
	c.Add(2)
	s.Capture(100)
	c.Add(3)
	// A metric registered after the first capture must not change the
	// row width.
	r.Counter("late")
	s.Capture(200)

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	want := [][]string{
		{"cycle", "events"},
		{"100", "2"},
		{"200", "5"},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("CSV = %v, want %v", recs, want)
	}

	buf.Reset()
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Columns []string `json:"columns"`
		Rows    []struct {
			At     uint64  `json:"at"`
			Values []int64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON does not parse: %v", err)
	}
	if !reflect.DeepEqual(doc.Columns, []string{"events"}) || len(doc.Rows) != 2 ||
		doc.Rows[1].At != 200 || doc.Rows[1].Values[0] != 5 {
		t.Errorf("JSON = %+v", doc)
	}
}
