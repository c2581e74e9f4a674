package compile

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"instrsample/internal/ir"
)

// TestLocalPassKillRules runs localCSE and propagateCopies on
// hand-built blocks, one rule per row, and compares the exact
// instructions and change counts. The passes are block-local and ignore
// control flow, so the blocks carry no terminators.
func TestLocalPassKillRules(t *testing.T) {
	const (
		cse = iota
		copies
	)
	add := func(d, a, b ir.Reg) ir.Instr { return ir.Instr{Op: ir.OpAdd, Dst: d, A: a, B: b} }
	mov := func(d, a ir.Reg) ir.Instr { return ir.Instr{Op: ir.OpMove, Dst: d, A: a} }
	neg := func(d, a ir.Reg) ir.Instr { return ir.Instr{Op: ir.OpNeg, Dst: d, A: a} }
	cnst := func(d ir.Reg, v int64) ir.Instr { return ir.Instr{Op: ir.OpConst, Dst: d, Imm: v} }
	// alen is an impure definition: it kills facts but makes none.
	alen := func(d, a ir.Reg) ir.Instr { return ir.Instr{Op: ir.OpArrayLen, Dst: d, A: a} }
	type block = []ir.Instr

	for _, tc := range []struct {
		name    string
		pass    int
		numRegs int
		in      []block
		want    []block
		changed int
	}{
		{
			name: "operand redefined between two equal expressions", pass: cse, numRegs: 6,
			in:      []block{{add(2, 0, 1), add(3, 0, 1), alen(0, 4), add(5, 0, 1)}},
			want:    []block{{add(2, 0, 1), mov(3, 2), alen(0, 4), add(5, 0, 1)}},
			changed: 1,
		},
		{
			name: "dst redefined before the repeat", pass: cse, numRegs: 6,
			in:      []block{{add(2, 0, 1), add(3, 0, 1), alen(2, 4), add(5, 0, 1)}},
			want:    []block{{add(2, 0, 1), mov(3, 2), alen(2, 4), add(5, 0, 1)}},
			changed: 1,
		},
		{
			name: "a rewritten dst kills expressions over it", pass: cse, numRegs: 6,
			in:      []block{{add(4, 3, 1), add(2, 0, 1), add(3, 0, 1), add(5, 3, 1)}},
			want:    []block{{add(4, 3, 1), add(2, 0, 1), mov(3, 2), add(5, 3, 1)}},
			changed: 1,
		},
		{
			// acc = acc+x leaves no fact; the next equal expression
			// computes into another register and makes one.
			name: "self-referential expression", pass: cse, numRegs: 5,
			in:      []block{{add(2, 2, 1), add(3, 2, 1), add(4, 2, 1)}},
			want:    []block{{add(2, 2, 1), add(3, 2, 1), mov(4, 3)}},
			changed: 1,
		},
		{
			name: "expression from the previous block", pass: cse, numRegs: 5,
			in:      []block{{add(2, 0, 1), add(3, 0, 1)}, {add(4, 0, 1)}},
			want:    []block{{add(2, 0, 1), mov(3, 2)}, {add(4, 0, 1)}},
			changed: 1,
		},
		{
			// A constant's unused A and B fields are r0, so its key
			// names r0.
			name: "a definition of r0 kills available constants", pass: cse, numRegs: 5,
			in:      []block{{cnst(1, 7), cnst(2, 7), alen(0, 4), cnst(3, 7)}},
			want:    []block{{cnst(1, 7), mov(2, 1), alen(0, 4), cnst(3, 7)}},
			changed: 1,
		},
		{
			// r7, r9 and r-3 are outside [0, 3): each is its own
			// register, aliasing neither another one nor a real one.
			name: "out-of-range registers in expressions", pass: cse, numRegs: 3,
			in:      []block{{add(7, 0, 1), alen(9, 0), alen(-3, 0), add(2, 0, 1), alen(7, 0), add(2, 0, 1)}},
			want:    []block{{add(7, 0, 1), alen(9, 0), alen(-3, 0), mov(2, 7), alen(7, 0), add(2, 0, 1)}},
			changed: 1,
		},
		{
			name: "copy source redefined before a use", pass: copies, numRegs: 6,
			in:      []block{{mov(2, 1), neg(3, 2), alen(1, 4), neg(5, 2)}},
			want:    []block{{mov(2, 1), neg(3, 1), alen(1, 4), neg(5, 2)}},
			changed: 1,
		},
		{
			name: "copy destination redefined before a use", pass: copies, numRegs: 6,
			in:      []block{{mov(2, 1), neg(3, 2), alen(2, 4), neg(5, 2)}},
			want:    []block{{mov(2, 1), neg(3, 1), alen(2, 4), neg(5, 2)}},
			changed: 1,
		},
		{
			name: "copy from the previous block", pass: copies, numRegs: 5,
			in:      []block{{mov(2, 1), neg(3, 2)}, {neg(4, 2)}},
			want:    []block{{mov(2, 1), neg(3, 1)}, {neg(4, 2)}},
			changed: 1,
		},
		{
			// astore's Dst is the array it reads; it defines nothing.
			name: "astore's Dst is rewritten as a use", pass: copies, numRegs: 7,
			in:      []block{{mov(3, 1), {Op: ir.OpArrayStore, Dst: 3, A: 5, B: 4}, alen(6, 3)}},
			want:    []block{{mov(3, 1), {Op: ir.OpArrayStore, Dst: 1, A: 5, B: 4}, alen(6, 1)}},
			changed: 2,
		},
		{
			// A constant reads neither A nor B, but both are rewritten.
			name: "unread A and B fields are rewritten", pass: copies, numRegs: 3,
			in:      []block{{mov(0, 2), cnst(1, 9)}},
			want:    []block{{mov(0, 2), {Op: ir.OpConst, Dst: 1, A: 2, B: 2, Imm: 9}}},
			changed: 2,
		},
		{
			name: "out-of-range registers in copies", pass: copies, numRegs: 3,
			in:      []block{{mov(7, 1), alen(2, 0), alen(-3, 0), neg(0, 7), alen(1, 0), neg(2, 7)}},
			want:    []block{{mov(7, 1), alen(2, 0), alen(-3, 0), neg(0, 1), alen(1, 0), neg(2, 7)}},
			changed: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &ir.Method{Name: "f", NumRegs: tc.numRegs}
			for _, instrs := range tc.in {
				m.NewBlock("").Instrs = append([]ir.Instr(nil), instrs...)
			}
			var changed int
			if tc.pass == cse {
				changed = newOptimizer(m).localCSE(m, newDefClock(m))
			} else {
				changed = newOptimizer(m).propagateCopies(m, newDefClock(m))
			}
			for i, b := range m.Blocks {
				if !reflect.DeepEqual(b.Instrs, tc.want[i]) {
					t.Errorf("block %d:\n got %+v\nwant %+v", i, b.Instrs, tc.want[i])
				}
			}
			if changed != tc.changed {
				t.Errorf("changed %d, want %d", changed, tc.changed)
			}
		})
	}
}

// TestOptimizerTablesPerCompile: Compile makes the tables of the
// block-local passes once, not once per block, method and round. With
// the heap profiler recording every allocation, it counts those made
// inside newOptimizer, foldConstants, localCSE and propagateCopies
// while compiling a method of 4 blocks and one of 32, whose every block
// keeps more constants, expressions and copies than a map holds before
// it first grows. A table made per block is made and grows again in
// every block; tables made once per Compile cost the same at 4 blocks
// as at 32.
func TestOptimizerTablesPerCompile(t *testing.T) {
	// chain builds work(p), called by main: blocks in a chain, each
	// computing p*c for 12 constants c and printing each product
	// through a copy of it.
	chain := func(blocks int) *ir.Program {
		b := ir.NewFunc("work", 1)
		c := b.At(b.EntryBlock())
		for k := 0; k < blocks; k++ {
			for j := 0; j < 12; j++ {
				e := c.Bin(ir.OpMul, 0, c.Const(int64(100*k+j)))
				m := b.FreshReg()
				c.Move(m, e)
				c.Print(m)
			}
			c = c.Jump(b.Block(""))
		}
		c.Return(0)
		mb := ir.NewFunc("main", 0)
		mc := mb.At(mb.EntryBlock())
		mc.Return(mc.Call(b.M, mc.Const(3)))
		p := &ir.Program{Name: "chain", Funcs: []*ir.Method{b.M, mb.M}, Main: mb.M}
		p.Seal()
		return p
	}
	passes := []string{".newOptimizer", ".foldConstants", ".localCSE", ".propagateCopies"}
	// allocs returns the allocations the heap profile has recorded
	// inside the passes and the tables' constructor so far.
	allocs := func() int64 {
		runtime.GC()
		runtime.GC()
		n, _ := runtime.MemProfile(nil, true)
		recs := make([]runtime.MemProfileRecord, n+64)
		n, _ = runtime.MemProfile(recs, true)
		var total int64
		for _, r := range recs[:n] {
			frames := runtime.CallersFrames(r.Stack())
			for {
				fr, more := frames.Next()
				if slices.ContainsFunc(passes, func(p string) bool { return strings.HasSuffix(fr.Function, p) }) {
					total += r.AllocObjects
					break
				}
				if !more {
					break
				}
			}
		}
		return total
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	counts := make(map[int]int64)
	for _, blocks := range []int{4, 32} {
		p := chain(blocks)
		before := allocs()
		if _, err := Compile(p, Options{}); err != nil {
			t.Fatal(err)
		}
		counts[blocks] = allocs() - before
	}
	t.Logf("the tables allocated %d times compiling 4 blocks and %d compiling 32", counts[4], counts[32])
	if counts[4] == 0 || counts[32] != counts[4] {
		t.Fatalf("the tables allocated %d times compiling 4 blocks and %d compiling 32: want the same, above 0",
			counts[4], counts[32])
	}
}
