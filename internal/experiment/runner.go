package experiment

import (
	"fmt"

	"instrsample/internal/bench"
	"instrsample/internal/vm"
)

// Config is shared by every experiment.
type Config struct {
	// Scale multiplies workload sizes; 1.0 is full experiment scale.
	Scale float64
	// ICache enables the instruction-cache model, capturing the
	// indirect cost of code growth.
	ICache bool
	// Benchmarks restricts the suite (nil = all).
	Benchmarks []string
	// Progress, when non-nil, receives one line per completed cell and
	// per assembled table row. When Engine runs more than one worker,
	// Progress is called from multiple goroutines and must be safe for
	// concurrent use.
	Progress func(string)
	// Engine executes the artifact's cells. Nil means a private serial
	// engine per batch — correct, but without cross-artifact cell
	// sharing, parallelism or caching; cmd/experiments always sets one.
	Engine *Engine
	// Artifact labels this Config's cell requests in the engine's
	// metrics registry (cells.run.<artifact> etc.); cmd/experiments sets
	// it to the artifact ID before invoking each generator.
	Artifact string
	// Owner labels this Config's requests for memo-flight attribution:
	// when another request parks on a flight this Config started, its
	// Cell.Stage hook receives Owner as the cause. The profiling service
	// sets it to the job ID; cmd/experiments leaves it empty.
	Owner string
}

// engine returns the configured engine, or a throwaway serial one.
func (c Config) engine() *Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return NewEngine(1, nil)
}

func (c Config) suite() ([]bench.Benchmark, error) {
	all := bench.Suite()
	if len(c.Benchmarks) == 0 {
		return all, nil
	}
	var out []bench.Benchmark
	for _, name := range c.Benchmarks {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// artifact returns the metrics label for this Config's cell requests.
func (c Config) artifact() string {
	if c.Artifact == "" {
		return "unlabeled"
	}
	return c.Artifact
}

func (c Config) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

func (c Config) icache() *vm.ICacheConfig {
	if !c.ICache {
		return nil
	}
	// The synthetic benchmarks compile to a few KiB of code, orders of
	// magnitude smaller than the paper's workloads; a full 16 KiB L1i
	// would hold everything and hide the indirect cost of code
	// duplication entirely. The experiments therefore model a cache
	// scaled to the programs (2 KiB, 32-byte lines), preserving the
	// paper's regime where hot code competes for cache space and the
	// duplicated copies add pressure.
	return &vm.ICacheConfig{SizeBytes: 2 << 10, LineBytes: 32}
}

// paperInstr names the two instrumentations of §4.2, in the order the
// experiments expect (0 = call-edge, 1 = field-access).
func paperInstr() []string { return []string{"call-edge", "field-access"} }

// overhead returns the percentage execution-time increase of x over base.
func overhead(x, base *CellResult) float64 {
	return 100 * (float64(x.Stats.Cycles)/float64(base.Stats.Cycles) - 1)
}
