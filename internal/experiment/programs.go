package experiment

import "instrsample/internal/compile"

// Program-tier metric names, in the registry an engine's AttachMetrics
// names: the daemon's /metrics shows them as programs_hit etc.
const (
	MetricProgramHit      = "programs.hit"            // counter: lookups served without compiling
	MetricProgramMiss     = "programs.miss"           // counter: lookups that compiled
	MetricProgramEvict    = "programs.evict"          // counter: programs dropped under the budget
	MetricProgramRetained = "programs.retained_bytes" // gauge: estimated bytes the tier holds
)

// programBudget bounds the estimated bytes of the compiled programs an
// engine retains. The isampbench service plan's 150 configurations
// (its ten benchmarks at its scales) come to about 11 MiB.
const programBudget = 32 << 20

// Estimated heap bytes one compiled program retains per IR instruction
// and per block: a least-squares fit, within ±20% per program, over
// those 150 configurations measured on go1.24/amd64.
const (
	programInstrBytes = 146
	programBlockBytes = 102
)

// programKey identifies a compiled program: the program's identity
// (bench=… scale=…, a source hash, or a scenario hash and index — the
// prefix cell and job keys start with) plus the fields of o that change
// what Compile produces. It is the only place that decides those
// fields; the run-time ones (IterBudget, Verify) and everything on the
// VM side (trigger, i-cache, max cycles) are left out, so runs that
// differ only there share one compiled program.
func programKey(prog string, o OptsSpec) string {
	return prog + " " + o.compileKey()
}

// programBytes is the deterministic size estimate the program budget
// applies to.
func programBytes(cr *compile.Result) int64 {
	var n int64
	for _, m := range cr.Prog.Methods() {
		n += programBlockBytes * int64(len(m.Blocks))
		for _, b := range m.Blocks {
			n += programInstrBytes * int64(len(b.Instrs))
		}
	}
	return n
}
