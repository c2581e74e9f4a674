package compile

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"instrsample/internal/bench"
	"instrsample/internal/core"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
)

// goldenIRHash is the sha256 over the digests of every (program,
// variation) pair of goldenPrograms × goldenVariations, in that order.
// It pins the compiled IR byte for byte: an optimizer or transform
// change that alters one instruction field, block layout, Work count or
// framework statistic anywhere in the matrix moves it. A change that
// alters compiled IR on purpose updates it together with
// testdata/ir_digests.txt, which the test prints on a mismatch.
const goldenIRHash = "d0a728e29e138f952dd1d91fc4a34e3c50febb387b789fd85b9865b33d78089f"

// goldenDigestsFile lists each pair's digest prefix, one program per
// line, so a mismatch can name the first pair that moved.
const goldenDigestsFile = "testdata/ir_digests.txt"

// goldenVariations are isampbench's in-process configurations: the
// uninstrumented baseline, exhaustive call-edge plus field-access
// instrumentation, and that pair under each sampling framework.
var goldenVariations = []struct {
	name string
	fw   *core.Options
}{
	{"base", nil},
	{"exhaustive", nil},
	{"full", &core.Options{Variation: core.FullDuplication}},
	{"partial", &core.Options{Variation: core.PartialDuplication}},
	{"nodup", &core.Options{Variation: core.NoDuplication}},
	{"full-yp", &core.Options{Variation: core.FullDuplication, YieldpointOpt: true}},
}

func goldenOptions(variation int) Options {
	v := goldenVariations[variation]
	if v.name == "base" {
		return Options{}
	}
	opts := Options{Instrumenters: []instr.Instrumenter{&instr.CallEdge{}, &instr.FieldAccess{}}}
	if v.fw != nil {
		fw := *v.fw
		opts.Framework = &fw
	}
	return opts
}

// goldenProgram is one program of the matrix; build returns a fresh
// copy.
type goldenProgram struct {
	name  string
	build func() *ir.Program
}

// goldenPrograms is the suite at isampbench's scales (the per-program
// table in cmd/isampbench/plan.go) and at 0.01, then ir.RandomProgram
// seeds 1–200 under the default config and a threaded, call-, loop- and
// virtual-call-biased one. Both halves stay: the suite's long generated
// blocks and the random programs' odd register reuse catch different
// optimizer bugs.
func goldenPrograms() []goldenProgram {
	isampbenchScales := map[string]float64{
		"compress": 0.03, "db": 0.1, "mpegaudio": 0.1, "jack": 0.12, "volano": 0.05,
		"jess": 0.015, "javac": 0.03, "mtrt": 0.03, "optc": 0.03, "pbob": 0.03,
	}
	var out []goldenProgram
	for _, b := range bench.Suite() {
		for _, scale := range []float64{isampbenchScales[b.Name], 0.01} {
			out = append(out, goldenProgram{
				name:  fmt.Sprintf("%s@%g", b.Name, scale),
				build: func() *ir.Program { return b.Build(scale) },
			})
		}
	}
	biased := ir.RandomProgramConfig{WithThreads: true, CallBiasPct: 25, LoopBiasPct: 25, VirtBiasPct: 25}
	for seed := uint64(1); seed <= 200; seed++ {
		out = append(out,
			goldenProgram{
				name:  fmt.Sprintf("rand%d", seed),
				build: func() *ir.Program { return ir.RandomProgram(seed, ir.RandomProgramConfig{}) },
			},
			goldenProgram{
				name:  fmt.Sprintf("rand%d-biased", seed),
				build: func() *ir.Program { return ir.RandomProgram(seed, biased) },
			})
	}
	return out
}

// readGoldenDigests parses goldenDigestsFile into program name →
// per-variation digest prefixes.
func readGoldenDigests(t *testing.T) map[string][]string {
	f, err := os.Open(goldenDigestsFile)
	if err != nil {
		t.Logf("cannot localize the mismatch: %v", err)
		return nil
	}
	defer f.Close()
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		want[fields[0]] = fields[1:]
	}
	return want
}

// TestCompiledIRGolden pins the compiled IR of the whole matrix. The
// baseline optimizer's passes must stay exact when their algorithms
// change: Result.Work counts instructions, so Table 2 and every
// experiment artifact depend on the optimizer emitting the same IR.
func TestCompiledIRGolden(t *testing.T) {
	progs := goldenPrograms()
	got := make([][][32]byte, len(progs))
	all := sha256.New()
	for pi, gp := range progs {
		src := gp.build()
		got[pi] = make([][32]byte, len(goldenVariations))
		for vi := range goldenVariations {
			res, err := Compile(src, goldenOptions(vi))
			if err != nil {
				t.Fatalf("%s/%s: %v", gp.name, goldenVariations[vi].name, err)
			}
			got[pi][vi] = Digest(res)
			all.Write(got[pi][vi][:])
		}
	}
	sum := hex.EncodeToString(all.Sum(nil))
	if sum == goldenIRHash {
		return
	}
	want := readGoldenDigests(t)
	first := ""
	var table strings.Builder
	table.WriteString("# TestCompiledIRGolden digest prefixes: program")
	for _, v := range goldenVariations {
		table.WriteString(" " + v.name)
	}
	table.WriteString("\n")
	for pi, gp := range progs {
		table.WriteString(gp.name)
		for vi, d := range got[pi] {
			prefix := hex.EncodeToString(d[:4])
			table.WriteString(" " + prefix)
			if w := want[gp.name]; first == "" && (vi >= len(w) || w[vi] != prefix) {
				first = gp.name + "/" + goldenVariations[vi].name
			}
		}
		table.WriteString("\n")
	}
	if first == "" {
		first = "none (every digest prefix matches)"
	}
	t.Fatalf("compiled IR hash %s, want %s\nfirst differing pair: %s\n"+
		"if the change to compiled IR is intended, set goldenIRHash and replace %s with:\n%s",
		sum, goldenIRHash, first, goldenDigestsFile, table.String())
}
