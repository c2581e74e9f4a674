package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// serviceScales are isampbench's benchmark scales, the ones its service
// workload submits jobs at.
var serviceScales = map[string]float64{
	"compress": 0.03, "db": 0.1, "mpegaudio": 0.1, "jack": 0.12, "volano": 0.05,
	"jess": 0.015, "javac": 0.03, "mtrt": 0.03, "optc": 0.03, "pbob": 0.03,
}

// TestRepeatedConfigurationAllocatesHalf is the allocation gate of the
// engine's program store, in bytes, through the local executor's job
// run path with the SSE meter attached. Each of the ten benchmarks at
// the service scales, under each variation with both paper
// instrumentations, runs twice: a first job that builds and compiles
// the program, then a job that repeats its compiled configuration at
// another interval (a new cell, so the result store does not serve it).
// Summed over the configurations, the repeats allocate at most half
// the bytes of the first jobs. The VM run, which every job pays, is the
// rest: on jack, javac and compress it is most of a job's bytes.
func TestRepeatedConfigurationAllocatesHalf(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	p := s.exec.(*localExecutor)
	n := 0
	job := func(spec JobSpec) uint64 {
		t.Helper()
		n++
		j := newJob(fmt.Sprintf("job-%06d", n), spec.withDefaults(), context.Background(), time.Now)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.run(j)
		runtime.ReadMemStats(&after)
		if v := j.view(); v.Status != StatusDone {
			t.Fatalf("%s: status %s (%s)", spec.describe(), v.Status, v.Error)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	var firsts, repeats uint64
	for _, name := range []string{"compress", "db", "mpegaudio", "jack", "volano", "jess", "javac", "mtrt", "optc", "pbob"} {
		var first, repeat uint64
		for _, variation := range []string{"", "full", "partial", "nodup", "hybrid"} {
			spec := JobSpec{
				Bench:      name,
				Scale:      serviceScales[name],
				Instrument: []string{"call-edge", "field-access"},
				Variation:  variation,
				Interval:   1009,
			}
			first += job(spec)
			spec.Interval = 1013
			repeat += job(spec)
		}
		t.Logf("%-9s first jobs %8d bytes, repeats %8d bytes (%.2f)", name, first, repeat, float64(repeat)/float64(first))
		firsts += first
		repeats += repeat
	}
	if st := p.eng.ProgramStats(); st.Misses != 50 || st.Hits != 50 {
		t.Fatalf("program store %+v, want 50 misses and 50 hits", st)
	}
	ratio := float64(repeats) / float64(firsts)
	t.Logf("all: first jobs %d bytes, repeats %d bytes (%.2f)", firsts, repeats, ratio)
	if ratio > 0.5 {
		t.Errorf("repeated configurations allocate %.2f of their first jobs' bytes, want at most 0.50", ratio)
	}
}

// printerSrc prints n values starting at from. Its result's estimate is
// mostly its output, 13 bytes a value.
func printerSrc(from, n int64) string {
	return fmt.Sprintf(`func main() {
entry:
  const i, 0
  const n, %d
  const one, 1
  const from, %d
loop:
  cmplt c, i, n
  br c, body, done
body:
  add v, i, from
  print v
  add i, i, one
  jmp loop
done:
  ret i
}
`, n, from)
}

// TestEvictedJobRecomputesSameResult: through the local executor's job
// run path, unique jobs whose results pass the engine's result budget
// evict the least recently used, and the evicted job's spec recomputes
// to a byte-identical result document.
func TestEvictedJobRecomputesSameResult(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	p := s.exec.(*localExecutor)
	n := 0
	job := func(from int64) []byte {
		t.Helper()
		n++
		spec := JobSpec{Source: printerSrc(from, 700_000)}
		j := newJob(fmt.Sprintf("job-%06d", n), spec.withDefaults(), context.Background(), time.Now)
		p.run(j)
		v := j.view()
		if v.Status != StatusDone {
			t.Fatalf("job %d: status %s (%s)", n, v.Status, v.Error)
		}
		out, err := json.Marshal(v.Result)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := job(0)
	for from := int64(1); p.eng.ResultStats().Evictions == 0; from++ {
		if from > 8 {
			t.Fatalf("no eviction after %d jobs: %+v", n, p.eng.ResultStats())
		}
		job(from)
	}
	misses := p.eng.ResultStats().Misses
	if again := job(0); !bytes.Equal(again, first) {
		t.Fatalf("the evicted job's result changed:\n%.200s\n%.200s", again, first)
	}
	if st := p.eng.ResultStats(); st.Misses != misses+1 {
		t.Fatalf("the evicted job was not recomputed: %+v", st)
	}
}
