package instrsample_test

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docCitations maps each ratio the prose documents cite to the BENCH
// snapshot field it was taken from. pattern must match exactly once in
// doc and capture the cited number; key names a top-level field of
// bench, a number or (with agg "min" or "max") a list of numbers. The
// recorded value, rounded to the cited number's precision, must equal
// the citation.
var docCitations = []struct {
	doc, pattern string
	bench, key   string
	agg          string
}{
	{"DESIGN.md", `median fused-vs-reference ratio \*\*([0-9.]+)\*\*`, "BENCH_PR7.json", "ratio_same_window", ""},
	{"DESIGN.md", `\(range ([0-9.]+)–[0-9.]+\) on the\s+compress kernel`, "BENCH_PR7.json", "ratio_fused_vs_reference_by_round", "min"},
	{"DESIGN.md", `\(range [0-9.]+–([0-9.]+)\) on the\s+compress kernel`, "BENCH_PR7.json", "ratio_fused_vs_reference_by_round", "max"},
	{"DESIGN.md", `fused streams at ([0-9.]+) over the plain pure-block loop`, "BENCH_PR7.json", "ratio_fused_vs_unfused", ""},
	{"DESIGN.md", `\(ratio 0\.91 →\s+([0-9.]+), BENCH_PR9\.json\)`, "BENCH_PR9.json", "ratio_full_vs_baseline", ""},
	{"CHANGES.md", `BENCH_PR7\.json: ([0-9.]+) median same-window`, "BENCH_PR7.json", "ratio_same_window", ""},
	{"CHANGES.md", `fused/unfused ([0-9.]+)\)`, "BENCH_PR7.json", "ratio_fused_vs_unfused", ""},
	{"CHANGES.md", `off ([0-9.]+) ≥ [0-9.]+ floor, full`, "BENCH_PR9.json", "ratio_off_vs_baseline", ""},
	{"CHANGES.md", `off [0-9.]+ ≥ ([0-9.]+) floor, full`, "BENCH_PR9.json", "floor_off", ""},
	{"CHANGES.md", `full ([0-9.]+) ≥ [0-9.]+ floor vs no-obs`, "BENCH_PR9.json", "ratio_full_vs_baseline", ""},
	{"CHANGES.md", `full [0-9.]+ ≥ ([0-9.]+) floor vs no-obs`, "BENCH_PR9.json", "floor_full", ""},
	{"CHANGES.md", `suppressed/trace speedup ([0-9.]+) in BENCH_PR8\.json`, "BENCH_PR8.json", "speedup_suppressed_vs_trace", ""},
	{"CHANGES.md", `BENCH_PR5\.json interleaved A/B: cancel-hook-unarmed ratio ([0-9.]+)`, "BENCH_PR5.json", "ratio", ""},
	{"CHANGES.md", `BENCH_PR4\.json interleaved A/B: observer-off drift ([0-9.]+)x`, "BENCH_PR4.json", "ratio", ""},
}

// TestDocsMatchBench fails when DESIGN.md or CHANGES.md cites a ratio
// that differs from the BENCH snapshot it comes from, or when a cited
// phrase is reworded so the check can no longer find it.
func TestDocsMatchBench(t *testing.T) {
	for _, c := range docCitations {
		field := c.key
		if c.agg != "" {
			field = c.agg + "(" + c.key + ")"
		}
		t.Run(c.doc+"/"+c.bench+":"+field, func(t *testing.T) {
			text, err := os.ReadFile(c.doc)
			if err != nil {
				t.Fatal(err)
			}
			m := regexp.MustCompile(c.pattern).FindAllStringSubmatch(string(text), -1)
			if len(m) != 1 {
				t.Fatalf("%s: pattern %q matches %d times, want 1", c.doc, c.pattern, len(m))
			}
			cited := m[0][1]
			recorded, err := benchValue(c.bench, c.key, c.agg)
			if err != nil {
				t.Fatal(err)
			}
			prec := 0
			if i := strings.IndexByte(cited, '.'); i >= 0 {
				prec = len(cited) - i - 1
			}
			if want := strconv.FormatFloat(recorded, 'f', prec, 64); cited != want {
				t.Errorf("%s cites %s, %s records %s = %s", c.doc, cited, c.bench, field, want)
			}
		})
	}
}

// benchValue reads key from a BENCH snapshot, reducing a list with agg.
func benchValue(file, key, agg string) (float64, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return 0, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return 0, fmt.Errorf("%s: %v", file, err)
	}
	raw, ok := fields[key]
	if !ok {
		return 0, fmt.Errorf("%s: no key %q", file, key)
	}
	if agg == "" {
		var v float64
		err := json.Unmarshal(raw, &v)
		return v, err
	}
	var xs []float64
	if err := json.Unmarshal(raw, &xs); err != nil || len(xs) == 0 {
		return 0, fmt.Errorf("%s: %s is not a non-empty number list", file, key)
	}
	switch agg {
	case "min":
		return slices.Min(xs), nil
	case "max":
		return slices.Max(xs), nil
	}
	return 0, fmt.Errorf("unknown aggregate %q", agg)
}
