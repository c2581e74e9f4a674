package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -summarize reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// summarizeFiles prints, for every metric in a set of result files of
// one workload, the median, the quartiles and the relative spread
// (Q3-Q1)/median. Files after a "vs" argument form a second set: its
// median is printed beside the first, with the relative change in the
// metric's worse direction, and any end-to-end metric whose change
// exceeds its BENCHMARK.json bound is flagged.
func summarizeFiles(w io.Writer, configPath string, args []string) error {
	var sets [2][]resultFile
	k := 0
	for _, a := range args {
		if a == "vs" {
			k = 1
			continue
		}
		var rf resultFile
		data, err := os.ReadFile(a)
		if err == nil {
			err = json.Unmarshal(data, &rf)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		sets[k] = append(sets[k], rf)
	}
	if len(sets[0]) == 0 {
		return fmt.Errorf("-summarize needs result files")
	}
	wl := sets[0][0].Workload
	for _, s := range sets {
		for _, rf := range s {
			if rf.Workload != wl {
				return fmt.Errorf("result files mix workloads %s and %s", wl, rf.Workload)
			}
		}
	}
	var bf benchmarkFile
	if data, err := os.ReadFile(configPath); err == nil {
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("%s: %w", configPath, err)
		}
	}
	type bound struct {
		lowerBetter bool
		bound       float64
	}
	bounds := map[string]bound{}
	for _, e := range bf.EndToEnd {
		bounds[e.Name] = bound{e.Better == "lower", e.Bound}
	}

	values := func(s []resultFile, name string) []float64 {
		var xs []float64
		for _, rf := range s {
			if v, ok := rf.Metrics[name]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "workload %s: %d runs", wl, len(sets[0]))
	if len(sets[1]) > 0 {
		fmt.Fprintf(w, " vs %d runs", len(sets[1]))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-34s %-9s %12s %12s %12s %8s", "metric", "unit", "median", "q1", "q3", "spread")
	if len(sets[1]) > 0 {
		fmt.Fprintf(w, " %12s %8s %6s", "median(vs)", "worse", "bound")
	}
	fmt.Fprintln(w)
	failed := 0
	for _, name := range sortedKeys(sets[0][0].Metrics) {
		xs := values(sets[0], name)
		med := median(xs)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-34s %-9s %12.4f %12.4f %12.4f %7.2f%%", name, sets[0][0].Metrics[name].Unit,
			med, q1, q3, 100*relative(q3-q1, med))
		if len(sets[1]) > 0 {
			med2 := median(values(sets[1], name))
			worse := relative(med2-med, med)
			b, ok := bounds[name]
			if ok && !b.lowerBetter {
				worse = -worse
			}
			fmt.Fprintf(w, " %12.4f %7.2f%%", med2, 100*worse)
			if ok {
				verdict := "ok"
				if worse > b.bound {
					verdict = "OVER"
					failed++
				}
				fmt.Fprintf(w, " %5.1f%% %s", 100*b.bound, verdict)
			}
		}
		fmt.Fprintln(w)
	}
	if failed > 0 {
		return fmt.Errorf("%d end-to-end metrics moved by more than their bound", failed)
	}
	return nil
}

// relative returns d/base, or 0 when base is 0.
func relative(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return d / math.Abs(base)
}
