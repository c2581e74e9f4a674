// Package compile orchestrates the compiler pipeline that turns a source
// program into an executable configuration: call-site numbering,
// yieldpoint insertion (as Jalapeño's baseline compiler does on every
// method entry and backedge), optional instrumentation, the optional
// sampling-framework transform, and the late backend phases — code layout
// / encoding and liveness analysis — that run *after* duplication, which
// is why the paper's Table 2 attributes the compile-time increase mostly
// to post-duplication phases. Result.Work records that cost as a
// deterministic instruction-visit count so Table 2's compile column is
// reproducible to the byte.
//
// See DESIGN.md §3 (system inventory) and §4 (Table 2,
// ablation-inlining).
package compile

import (
	"fmt"
	"slices"
	"time"

	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/vm"
)

// Options configures a compilation.
type Options struct {
	// Instrumenters are applied to every method, in owner order. Empty
	// means an uninstrumented baseline build.
	Instrumenters []instr.Instrumenter
	// InstrumentFilter restricts instrumentation to selected methods
	// (nil = all). The filter sees the compiled clone's methods; select
	// by FullName. Combined with SelectiveTransform this is the adaptive
	// system's hot-method-only configuration (§3).
	InstrumentFilter func(*ir.Method) bool
	// SelectiveTransform applies the framework only to methods that
	// carry probes, leaving every other method at exact baseline cost.
	SelectiveTransform bool
	// Framework, when non-nil, applies the sampling framework after
	// instrumentation. Nil with instrumenters present produces
	// exhaustively instrumented code (the paper's Table 1 configuration).
	Framework *core.Options
	// ChecksOnly, when non-nil, inserts bare checks without duplication
	// (the Table 2 breakdown configuration). Mutually exclusive with
	// Framework and Instrumenters.
	ChecksOnly *core.ChecksOnly
	// SkipVerify disables post-compile verification (benchmarks only).
	SkipVerify bool
	// NoOptimize disables the baseline optimization passes (tests that
	// need the IR exactly as constructed).
	NoOptimize bool
	// Inline enables aggressive static inlining of small callees before
	// instrumentation (§4.3's suggestion for reducing method-entry check
	// overhead). Off by default: the paper's measurements use the
	// default, non-aggressive heuristics, so the reproduction does too.
	Inline bool
	// InlinePolicy bounds the inliner when Inline is set (zero value =
	// defaults).
	InlinePolicy InlinePolicy
	// DevirtSites maps call-site IDs to predicted dense class IDs
	// (instr.PredictReceivers over a sampled receiver profile). Listed
	// sites are rewritten to guarded direct calls; with Inline also set,
	// the inliner re-runs afterwards so the devirtualized calls can be
	// expanded — the full profile-guided receiver-class-prediction
	// pipeline of the paper's citation [27].
	DevirtSites map[int]int
}

// Result is a compiled program plus compilation statistics. Apart from
// Runtimes and Handlers, nothing in it changes after Compile returns:
// the VM only reads the program, so one Result can back many runs, also
// concurrent ones, as long as each run takes its own runtimes from
// NewRuntimes (DESIGN.md §5, §10).
type Result struct {
	// Prog is the compiled program (a private clone of the input).
	Prog *ir.Program
	// Runtimes are the instrumentation runtimes of one run, in owner
	// order; plug Handlers into vm.Config. Compile fills them from
	// NewRuntimes, so a program run once needs no other.
	Runtimes []instr.Runtime
	// Handlers is the vm.Config.Handlers slice matching Runtimes.
	Handlers []vm.ProbeHandler
	// CodeSize is the total encoded code size in bytes.
	CodeSize int
	// CheckingCodeSize and DuplicatedCodeSize split CodeSize by block
	// kind (check blocks count as checking code).
	CheckingCodeSize, DuplicatedCodeSize int
	// CompileTime is the wall-clock time of the pipeline. It is noisy
	// and machine-dependent; deterministic comparisons (Table 2's
	// compile-cost column) use Work instead.
	CompileTime time.Duration
	// Work is a deterministic compile-cost measure: the number of
	// instruction visits the pipeline performs, charging the front-half
	// phases (inlining, optimization, numbering, yieldpoints) for the
	// pre-duplication code and the late phases (the framework transform,
	// liveness, layout) for the code they actually traverse. Because the
	// late phases run after duplication, Work grows with the duplicated
	// code exactly as the paper's Table 2 compile-time column does, but —
	// unlike CompileTime — it is identical across runs, machines and
	// degrees of parallelism.
	Work int64
	// FrameworkStats aggregates the transform's per-method statistics
	// (zero value when no framework ran).
	FrameworkStats core.MethodStats
	// Yieldpoints is the number of yieldpoints inserted.
	Yieldpoints int
	// CallsInlined is the number of call sites the inliner expanded
	// (0 unless Options.Inline).
	CallsInlined int
	// SitesDevirtualized is the number of virtual call sites rewritten to
	// guarded direct calls (0 unless Options.DevirtSites).
	SitesDevirtualized int

	// instrumenters are the instances the program was instrumented
	// with; their runtimes read what they recorded at compile time
	// (block labels, path numberings).
	instrumenters []instr.Instrumenter
}

// NewRuntimes returns fresh instrumentation runtimes for one run of the
// compiled program, in owner order, with the matching vm.Config.Handlers
// slice. Both are nil for an uninstrumented program.
func (r *Result) NewRuntimes() ([]instr.Runtime, []vm.ProbeHandler) {
	if len(r.instrumenters) == 0 {
		return nil, nil
	}
	return instr.NewRuntimes(r.Prog, r.instrumenters)
}

// Compile clones the source program and runs the pipeline on the clone,
// so one source can be compiled under many configurations.
func Compile(src *ir.Program, opts Options) (*Result, error) {
	start := time.Now()
	if !src.Sealed() {
		src.Seal()
	}
	p := ir.CloneProgram(src)

	res := &Result{Prog: p}

	// Front half (the baseline O2 compiler): inlining, optimization,
	// numbering and yieldpoints.
	if opts.Inline {
		res.CallsInlined = InlineProgram(p, opts.InlinePolicy)
	}
	var opt *optimizer
	if !opts.NoOptimize {
		opt = newOptimizer(p.Methods()...)
		for _, m := range p.Methods() {
			opt.optimize(m)
		}
	}
	instr.AssignCallSiteIDs(p)
	if len(opts.DevirtSites) > 0 {
		// Feedback-directed devirtualization: site IDs at this point
		// match a profiling compile with identical front-end options.
		res.SitesDevirtualized = Devirtualize(p, opts.DevirtSites)
		if opts.Inline {
			// The newly direct calls are inlining candidates.
			res.CallsInlined += InlineProgram(p, opts.InlinePolicy)
		}
		if !opts.NoOptimize {
			for _, m := range p.Methods() {
				opt.optimize(m)
			}
		}
		// Renumber sites so downstream instrumentation stays dense.
		instr.AssignCallSiteIDs(p)
	}
	for _, m := range p.Methods() {
		res.Yieldpoints += InsertYieldpoints(m)
	}
	// The front half made three passes (inlining+optimization, call-site
	// numbering, yieldpoints) over pre-duplication code.
	res.Work += 3 * countInstrs(p)

	// Instrumentation.
	if len(opts.Instrumenters) > 0 {
		instr.InstrumentMethods(p, opts.Instrumenters, opts.InstrumentFilter)
		res.instrumenters = slices.Clone(opts.Instrumenters)
		res.Runtimes, res.Handlers = res.NewRuntimes()
	}

	// The sampling framework.
	if opts.Framework != nil {
		if opts.ChecksOnly != nil {
			return nil, fmt.Errorf("compile: Framework and ChecksOnly are mutually exclusive")
		}
		var keep func(*ir.Method) bool
		if opts.SelectiveTransform {
			keep = core.HasProbes
		}
		fs, err := core.TransformSelected(p, *opts.Framework, keep)
		if err != nil {
			return nil, err
		}
		res.FrameworkStats = *fs
	} else if opts.ChecksOnly != nil {
		if len(opts.Instrumenters) > 0 {
			return nil, fmt.Errorf("compile: ChecksOnly cannot be combined with instrumentation")
		}
		for _, m := range p.Methods() {
			res.FrameworkStats.ChecksInserted += core.InsertChecksOnly(m, *opts.ChecksOnly)
		}
	}

	// Re-seal: the transforms above add and clone blocks, invalidating the
	// seal-time annotations (dense program-wide block GIDs, vtables). Each
	// transform renumbers the methods it touches, so this pass changes no
	// IDs the instrumentation already recorded; it refreshes the
	// program-wide tables the VM's fast paths index by.
	p.Seal()

	// Late phases (run after duplication, so their cost scales with the
	// duplicated code): liveness analysis and layout/encoding. The
	// framework transform plus these two passes each traverse the
	// post-duplication code.
	res.Work += 3 * countInstrs(p)
	for _, m := range p.Methods() {
		m.ComputeLiveness()
	}
	res.CodeSize, res.CheckingCodeSize, res.DuplicatedCodeSize = Layout(p)

	if !opts.SkipVerify {
		mode := ir.VerifyBase
		if opts.Framework != nil {
			mode = ir.VerifyTransformed
		}
		if err := p.Verify(mode); err != nil {
			return nil, fmt.Errorf("compile: verification failed: %w", err)
		}
	}
	res.CompileTime = time.Since(start)
	return res, nil
}

// InsertYieldpoints places a yieldpoint on the method entry and on every
// backedge, exactly as Jalapeño does, "to guarantee that there is a
// finite amount of time between yieldpoints" (§4.5). Conditional
// backedges are split with a trampoline so the yieldpoint executes only
// when the backedge is taken; every backedge's terminator edge is marked
// in BackedgeMask. Returns the number of yieldpoints inserted.
func InsertYieldpoints(m *ir.Method) int {
	n := 0
	trampolines := 0
	m.Entry().InsertFront(ir.Instr{Op: ir.OpYield})
	n++
	for _, e := range m.Backedges() {
		t := e.From.Terminator()
		if t.Op == ir.OpJump {
			e.From.InsertBeforeTerminator(ir.Instr{Op: ir.OpYield})
			t = e.From.Terminator()
			t.BackedgeMask |= 1
		} else {
			tramp := m.NewBlock("")
			tramp.Append(ir.Instr{Op: ir.OpYield})
			tramp.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{e.To}, BackedgeMask: 1})
			t.Targets[e.Index] = tramp
			t.BackedgeMask &^= 1 << uint(e.Index)
			trampolines++
		}
		n++
	}
	// Straight-line yieldpoints don't change the CFG; only trampoline
	// blocks add edges and IDs worth recomputing.
	if trampolines > 0 {
		m.RecomputePreds()
		m.Renumber()
	}
	return n
}

// countInstrs totals the program's instructions (one unit per block for
// block-level bookkeeping), the unit of the deterministic Work measure.
func countInstrs(p *ir.Program) int64 {
	var n int64
	for _, m := range p.Methods() {
		for _, b := range m.Blocks {
			n += int64(len(b.Instrs)) + 1
		}
	}
	return n
}

// instrBytes is the fictional encoding width of one IR instruction.
const instrBytes = 4

// Layout assigns code addresses to every block and code sizes to every
// method, placing all duplicated code after all checking code ("the
// duplicated code is executed infrequently and can be placed somewhere
// out of the common path", §3). Keeping the checking code of every
// method contiguous means that, as long as no samples are taken, the
// program's cache footprint is essentially the baseline's — the paper's
// observation that the indirect cost of duplication is minimal. Returns
// total, checking-only and duplicated-only code sizes in bytes.
func Layout(p *ir.Program) (total, checking, duplicated int) {
	addr := 0
	for pass := 0; pass < 2; pass++ {
		for _, m := range p.Methods() {
			for _, b := range m.Blocks {
				isDup := b.Kind == ir.KindDuplicated
				if (pass == 1) != isDup {
					continue
				}
				b.Addr = addr
				b.Size = len(b.Instrs) * instrBytes
				addr += b.Size
				if isDup {
					duplicated += b.Size
				} else {
					checking += b.Size
				}
			}
		}
	}
	for _, m := range p.Methods() {
		size := 0
		for _, b := range m.Blocks {
			size += b.Size
		}
		m.CodeSize = size
	}
	return addr, checking, duplicated
}
