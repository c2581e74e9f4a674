package vm

import (
	"slices"
	"testing"
	"unsafe"

	"instrsample/internal/ir"
)

// TestFInstrSize pins the fused-instruction layout: 32 bytes, two per
// cache line. Any field addition that grows it silently halves the
// fused stream's fetch density, so growth must be a deliberate,
// test-acknowledged decision (the ir.Instr analogue lives in package
// ir).
func TestFInstrSize(t *testing.T) {
	if s := unsafe.Sizeof(fInstr{}); s != 32 {
		t.Fatalf("fInstr is %d bytes, want 32 (two per cache line); if the growth is deliberate, update this test and the fInstr layout comment", s)
	}
	if n := int(fuseNumToks); n > 256 {
		t.Fatalf("%d fused tokens overflow the uint8 token space", n)
	}
	for tok := range superNames {
		if tok < fuseNumToks && tok > fReturn {
			continue
		}
		t.Errorf("superNames names token %d, which is not a superinstruction token", tok)
	}
}

// fuseTestBlock builds a sealed single-method program around the given
// straight-line body (a jump terminator and a return block are
// appended) and returns its entry block.
func fuseTestBlock(t *testing.T, body []ir.Instr) *ir.Block {
	t.Helper()
	fb := ir.NewFunc("main", 0)
	entry := fb.EntryBlock()
	for _, in := range body {
		entry.Append(in)
	}
	done := fb.Block("done")
	entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{done}})
	fb.At(done).Return(0)
	p := &ir.Program{Name: "fusetest", Funcs: []*ir.Method{fb.M}, Main: fb.M}
	p.Seal()
	if !wellFormed(entry) {
		t.Fatalf("test body does not end in its only terminator")
	}
	return entry
}

// TestFuseBlockMatching checks the greedy matcher: triples before
// pairs, left-to-right non-overlapping, conditional compare+branch
// fusion, and the pc/n bookkeeping that reconstruction depends on.
func TestFuseBlockMatching(t *testing.T) {
	// const r1; add r2 = r1+r1; yield; jmp — greedy pairing takes
	// (const,add), leaving (yield,jmp) as a latch pair, whose jump
	// resumes through the tail jump token.
	b := fuseTestBlock(t, []ir.Instr{
		{Op: ir.OpConst, Dst: 1, Imm: 7},
		{Op: ir.OpAdd, Dst: 2, A: 1, B: 1},
		{Op: ir.OpYield},
	})
	fb := fuseBlock(b)
	if fb == nil {
		t.Fatal("fuseBlock returned nil for an encodable block")
	}
	wantToks := []fuseTok{fConstAdd, fYieldJmp, fJump}
	if len(fb.code) != len(wantToks) {
		t.Fatalf("fused stream has %d tokens, want %d", len(fb.code), len(wantToks))
	}
	for i, want := range wantToks {
		if fb.code[i].tok != want {
			t.Errorf("code[%d].tok = %d, want %d", i, fb.code[i].tok, want)
		}
	}
	if fb.code[0].pc != 0 || fb.code[0].n != 2 || fb.code[1].pc != 2 || fb.code[1].n != 2 ||
		fb.code[2].pc != 3 || fb.code[2].n != 1 {
		t.Errorf("pc/n bookkeeping wrong: %+v", fb.code)
	}
	if want := []uint16{0, noResume, 1, 2}; !slices.Equal(fb.resume, want) {
		t.Errorf("resume = %v, want %v", fb.resume, want)
	}
	if fb.supers != 2 || fb.covered != 4 {
		t.Errorf("supers=%d covered=%d, want 2/4", fb.supers, fb.covered)
	}

	// add; yield (+ appended jmp) must match the three-wide latch, and
	// its jump resume at the tail token.
	b = fuseTestBlock(t, []ir.Instr{
		{Op: ir.OpAdd, Dst: 1, A: 1, B: 1},
		{Op: ir.OpYield},
	})
	fb = fuseBlock(b)
	if len(fb.code) != 2 || fb.code[0].tok != fAddYieldJmp || fb.code[0].n != 3 || fb.code[1].tok != fJump {
		t.Fatalf("latch triple not matched: %+v", fb.code)
	}
	if want := []uint16{0, noResume, 1}; !slices.Equal(fb.resume, want) {
		t.Errorf("resume = %v, want %v", fb.resume, want)
	}

	// cmplt feeding the branch fuses; a branch testing an unrelated
	// register must not.
	mk := func(brReg ir.Reg) *ir.Block {
		fb := ir.NewFunc("main", 0)
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpCmpLT, Dst: 3, A: 1, B: 2})
		thenB := fb.Block("t")
		elseB := fb.Block("e")
		entry.Append(ir.Instr{Op: ir.OpBranch, A: brReg, Targets: []*ir.Block{thenB, elseB}})
		fb.At(thenB).Return(0)
		fb.At(elseB).Return(0)
		p := &ir.Program{Name: "cmpbr", Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return entry
	}
	if fb := fuseBlock(mk(3)); len(fb.code) != 1 || fb.code[0].tok != fCmpLTBr {
		t.Errorf("cmplt+br on the compare result did not fuse: %+v", fb.code)
	}
	if fb := fuseBlock(mk(1)); len(fb.code) != 2 || fb.code[0].tok != fCmpLT || fb.code[1].tok != fBranch {
		t.Errorf("br on an unrelated register fused anyway: %+v", fb.code)
	}

	// A call is a single base token between superinstructions, the
	// return a terminator token, and resume maps every token start:
	// the pc after the call must start one, for the caller's resume.
	leaf := ir.NewFunc("leaf", 0)
	leaf.At(leaf.EntryBlock()).Return(ir.NoReg)
	cb := ir.NewFunc("main", 0)
	entry := cb.EntryBlock()
	entry.Append(ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 2})
	entry.Append(ir.Instr{Op: ir.OpAdd, Dst: 2, A: 1, B: 1})
	entry.Append(ir.Instr{Op: ir.OpCall, Dst: 3, Method: leaf.M})
	entry.Append(ir.Instr{Op: ir.OpConst, Dst: 4, Imm: 3})
	entry.Append(ir.Instr{Op: ir.OpAdd, Dst: 5, A: 4, B: 3})
	entry.Append(ir.Instr{Op: ir.OpReturn, A: 5})
	(&ir.Program{Name: "call", Funcs: []*ir.Method{leaf.M, cb.M}, Main: cb.M}).Seal()
	if !wellFormed(entry) {
		t.Fatal("a block with a call and a return is not well formed")
	}
	fb = fuseBlock(entry)
	var got []fuseTok
	for _, fi := range fb.code {
		got = append(got, fi.tok)
	}
	if !slices.Equal(got, []fuseTok{fConstAdd, fCall, fConstAdd, fReturn}) {
		t.Fatalf("call block fused to %+v", fb.code)
	}
	if want := []uint16{0, noResume, 1, 2, noResume, 3}; !slices.Equal(fb.resume, want) {
		t.Errorf("resume = %v, want %v", fb.resume, want)
	}
}

// --- dispatch-style measurement ---
//
// The fused executor dispatches with a dense switch over fuseTok, which
// the compiler lowers to a jump table; the alternative — a
// dense [numToks]func handler table — costs an indirect call per token
// and forces the interpreter state (cycle counter, pc, register base)
// through memory. BenchmarkFusedDispatchStyle measures both styles on
// the same synthetic token stream so the choice stays justified by a
// number in this repo rather than folklore; BENCH_PR7.json and
// DESIGN.md §7.6 record the result.

type dispatchState struct {
	regs   [8]int64
	cycles uint64
	pc     int
}

var dispatchHandlers = [4]func(*dispatchState){
	func(s *dispatchState) { s.regs[0] += s.regs[1]; s.cycles++ },
	func(s *dispatchState) { s.regs[2] ^= s.regs[0]; s.cycles++ },
	func(s *dispatchState) { s.regs[3] = s.regs[2] << 1; s.cycles++ },
	func(s *dispatchState) { s.regs[1] &= s.regs[3]; s.cycles++ },
}

func dispatchStream(n int) []uint8 {
	toks := make([]uint8, n)
	for i := range toks {
		toks[i] = uint8(i * 2654435761 % 4)
	}
	return toks
}

func BenchmarkFusedDispatchStyle(b *testing.B) {
	const streamLen = 4096
	toks := dispatchStream(streamLen)
	b.Run("switch", func(b *testing.B) {
		var s dispatchState
		s.regs = [8]int64{1, 2, 3, 4, 5, 6, 7, 8}
		for i := 0; i < b.N; i++ {
			regs := &s.regs
			cycles := s.cycles
			for _, tok := range toks {
				switch tok {
				case 0:
					regs[0] += regs[1]
					cycles++
				case 1:
					regs[2] ^= regs[0]
					cycles++
				case 2:
					regs[3] = regs[2] << 1
					cycles++
				case 3:
					regs[1] &= regs[3]
					cycles++
				}
			}
			s.cycles = cycles
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/streamLen, "ns/dispatch")
	})
	b.Run("handler-table", func(b *testing.B) {
		var s dispatchState
		s.regs = [8]int64{1, 2, 3, 4, 5, 6, 7, 8}
		for i := 0; i < b.N; i++ {
			for _, tok := range toks {
				dispatchHandlers[tok](&s)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/streamLen, "ns/dispatch")
	})
}
