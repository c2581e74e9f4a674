// Package scenario turns ir.RandomProgram into a first-class workload
// family: a seeded, serializable spec (Family) that expands into a
// deterministic set of programs with controllable profile shape — loop
// depth, call density, polymorphism/receiver spread, thread count — so
// experiments can sweep *spaces* of programs instead of the ten fixed
// benchmarks, and every generated program doubles as a correctness
// probe under the runtime oracle. The family hash (SHA-256 over the
// spec and every program's canonical disassembly) is the replay
// receipt: two machines that print the same hash expanded
// byte-identical program sets.
//
// The package also implements whole-run record-and-replay (record.go):
// a Recording captures every trigger-fire decision, every green-thread
// schedule decision, and a fingerprint of the run's Result; Replay
// re-executes the identical decision sequence — on another machine or
// the other dispatcher — and differentially checks it bit-identical.
//
// See DESIGN.md §13 for the spec format, the replay determinism
// contract and how the experiment engine's scenario-sweep artifact
// uses both.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"instrsample/internal/ir"
)

// Family is a seeded workload-family spec. It is pure data: the same
// spec and seed expand to the byte-identical program set on any
// machine at any degree of parallelism. The JSON form rejects unknown
// fields, so a typo in a spec file is an error, not a silently ignored
// knob.
type Family struct {
	// Name labels the family in reports and cell keys.
	Name string `json:"name"`
	// Seed seeds the family; program i derives its own seed from it.
	Seed uint64 `json:"seed"`
	// Count is the number of programs the family expands into.
	Count int `json:"count"`

	// Profile-shape knobs, forwarded to ir.RandomProgramConfig.
	// Zero values mean the generator's defaults.
	MaxFuncs     int  `json:"max_funcs,omitempty"`
	MaxDepth     int  `json:"max_depth,omitempty"`
	MaxLoopIters int  `json:"max_loop_iters,omitempty"`
	MaxClasses   int  `json:"max_classes,omitempty"`
	Threads      int  `json:"threads,omitempty"`
	CallBiasPct  int  `json:"call_bias_pct,omitempty"`
	LoopBiasPct  int  `json:"loop_bias_pct,omitempty"`
	VirtBiasPct  int  `json:"virt_bias_pct,omitempty"`
	WithThreads  bool `json:"with_threads,omitempty"`
}

// Validate checks the spec's bounds. Bias percentages must be in
// [0, 100]; sizes must be non-negative (0 = generator default); Count
// must be positive; Threads > 0 requires WithThreads (a spread for
// threads that are never spawned is a spec error, not a no-op).
func (f *Family) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("scenario: family has no name")
	}
	if f.Count <= 0 {
		return fmt.Errorf("scenario %s: count must be positive, got %d", f.Name, f.Count)
	}
	for _, s := range []struct {
		name string
		v    int
	}{
		{"max_funcs", f.MaxFuncs}, {"max_depth", f.MaxDepth},
		{"max_loop_iters", f.MaxLoopIters}, {"max_classes", f.MaxClasses},
		{"threads", f.Threads},
	} {
		if s.v < 0 {
			return fmt.Errorf("scenario %s: %s must be non-negative, got %d", f.Name, s.name, s.v)
		}
	}
	for _, s := range []struct {
		name string
		v    int
	}{
		{"call_bias_pct", f.CallBiasPct}, {"loop_bias_pct", f.LoopBiasPct},
		{"virt_bias_pct", f.VirtBiasPct},
	} {
		if s.v < 0 || s.v > 100 {
			return fmt.Errorf("scenario %s: %s must be in [0, 100], got %d", f.Name, s.name, s.v)
		}
	}
	if f.Threads > 0 && !f.WithThreads {
		return fmt.Errorf("scenario %s: threads=%d requires with_threads", f.Name, f.Threads)
	}
	return nil
}

// ReadFamily parses and validates a JSON family spec, rejecting
// unknown fields.
func ReadFamily(r io.Reader) (*Family, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f Family
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("scenario: parsing family spec: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Config returns the generator config the family's knobs describe.
func (f *Family) Config() ir.RandomProgramConfig {
	return ir.RandomProgramConfig{
		MaxFuncs:     f.MaxFuncs,
		MaxDepth:     f.MaxDepth,
		MaxLoopIters: f.MaxLoopIters,
		WithThreads:  f.WithThreads,
		MaxClasses:   f.MaxClasses,
		MaxThreads:   f.Threads,
		CallBiasPct:  f.CallBiasPct,
		LoopBiasPct:  f.LoopBiasPct,
		VirtBiasPct:  f.VirtBiasPct,
	}
}

// splitmix64 is the standard splitmix64 finalizer — a bijective mixer,
// so distinct (Seed, index) pairs yield distinct program seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ProgramSeed returns the generator seed of program i. Seeds are
// derived, not sequential, so neighbouring programs share no PRNG
// stream prefix.
func (f *Family) ProgramSeed(i int) uint64 {
	return splitmix64(f.Seed ^ splitmix64(uint64(i)+1))
}

// Program builds program i of the family. Programs are built on
// demand and independently: Program(i) is pure, so the experiment
// engine can expand one family member inside each cell without
// ordering constraints.
func (f *Family) Program(i int) (*ir.Program, error) {
	if i < 0 || i >= f.Count {
		return nil, fmt.Errorf("scenario %s: program index %d out of range [0, %d)", f.Name, i, f.Count)
	}
	return ir.RandomProgram(f.ProgramSeed(i), f.Config()), nil
}

// Expand builds the family's whole program set, in index order.
func (f *Family) Expand() ([]*ir.Program, error) {
	progs := make([]*ir.Program, f.Count)
	for i := range progs {
		p, err := f.Program(i)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: program %d: %w", f.Name, i, err)
		}
		progs[i] = p
	}
	return progs, nil
}

// canonical returns the spec's canonical JSON (fixed field order via
// the struct marshaller).
func (f *Family) canonical() []byte {
	b, err := json.Marshal(f)
	if err != nil {
		// A Family of plain ints/strings cannot fail to marshal.
		panic("scenario: marshal family: " + err.Error())
	}
	return b
}

// SpecHash is the SHA-256 of the canonical spec JSON — cheap (no
// expansion), used to key experiment cells and job specs.
func (f *Family) SpecHash() string {
	sum := sha256.Sum256(f.canonical())
	return hex.EncodeToString(sum[:])
}

// Hash is the family's replay receipt: the SHA-256 of the canonical
// spec JSON followed by every program's canonical disassembly, in
// index order. Two machines that print the same Hash expanded
// byte-identical program sets.
func (f *Family) Hash() (string, error) {
	h := sha256.New()
	h.Write(f.canonical())
	for i := 0; i < f.Count; i++ {
		p, err := f.Program(i)
		if err != nil {
			return "", fmt.Errorf("scenario %s: program %d: %w", f.Name, i, err)
		}
		fmt.Fprintf(h, "\n-- program %d seed %#x --\n", i, f.ProgramSeed(i))
		ir.FprintProgram(h, p)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// DefaultFamily is the family the CLIs and the scenario-sweep artifact
// use when no spec file is given: a mixed-shape family with threads,
// moderate polymorphism and boosted call/loop density.
func DefaultFamily(seed uint64, count int) *Family {
	return &Family{
		Name:        "default",
		Seed:        seed,
		Count:       count,
		MaxClasses:  4,
		WithThreads: true,
		Threads:     3,
		CallBiasPct: 20,
		LoopBiasPct: 15,
		VirtBiasPct: 10,
	}
}
