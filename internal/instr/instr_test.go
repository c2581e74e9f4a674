package instr

import (
	"strings"
	"testing"

	"instrsample/internal/ir"
	"instrsample/internal/trigger"
	"instrsample/internal/vm"
)

// testProgram builds a program with known call/field/branch structure:
//
//	main: loop 10x { o.f = i; call leaf(i); if i&1 { o.g = i } }
//	leaf(x): returns x+1
func testProgram() (*ir.Program, *ir.Class) {
	cl := &ir.Class{Name: "O", FieldNames: []string{"f", "g"}}
	leaf := ir.NewFunc("leaf", 1)
	{
		c := leaf.At(leaf.EntryBlock())
		one := c.Const(1)
		c.Return(c.Bin(ir.OpAdd, 0, one))
	}
	mb := ir.NewFunc("main", 0)
	{
		c := mb.At(mb.EntryBlock())
		o := c.New(cl)
		acc := c.Const(0)
		n := c.Const(10)
		lp := c.CountedLoop(n, "l")
		b := lp.Body
		b.PutField(o, cl, "f", lp.I)
		r := b.Call(leaf.M, lp.I)
		b.BinTo(ir.OpAdd, acc, acc, r)
		one := b.Const(1)
		odd := b.Bin(ir.OpAnd, lp.I, one)
		oddB := mb.Block("odd")
		contB := mb.Block("cont")
		b.Branch(odd, oddB, contB)
		oc := mb.At(oddB)
		oc.PutField(o, cl, "g", lp.I)
		oc.Jump(contB)
		cc := mb.At(contB)
		cc.Jump(lp.Latch)
		lp.After.Return(acc)
	}
	p := &ir.Program{Name: "t", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{leaf.M, mb.M}, Main: mb.M}
	p.Seal()
	return p, cl
}

// instrumentAndRun applies one instrumenter exhaustively and runs.
func instrumentAndRun(t *testing.T, p *ir.Program, ins Instrumenter) (Runtime, *vm.Result) {
	t.Helper()
	q := ir.CloneProgram(p)
	AssignCallSiteIDs(q)
	InstrumentAll(q, []Instrumenter{ins})
	rts, handlers := NewRuntimes(q, []Instrumenter{ins})
	q.Seal()
	if err := q.Verify(ir.VerifyBase); err != nil {
		t.Fatalf("instrumented program invalid: %v", err)
	}
	out, err := vm.New(q, vm.Config{Handlers: handlers, Trigger: trigger.Never{}}).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rts[0], out
}

func TestCallEdgeCounts(t *testing.T) {
	p, _ := testProgram()
	rt, _ := instrumentAndRun(t, p, &CallEdge{})
	prof := rt.Profile()
	// Edges: root->main (1) and main->leaf (10).
	if prof.Total() != 11 {
		t.Fatalf("total %d, want 11", prof.Total())
	}
	if prof.NumEvents() != 2 {
		t.Fatalf("%d distinct edges, want 2", prof.NumEvents())
	}
	top := prof.Entries()[0]
	caller, site, callee := DecodeCallEdge(top.Key)
	if top.Count != 10 {
		t.Fatalf("hot edge count %d, want 10", top.Count)
	}
	if caller < 0 || site == 0 {
		t.Errorf("hot edge should have a real caller and site: caller=%d site=%d", caller, site)
	}
	methods := p.Methods()
	_ = methods
	if callee < 0 {
		t.Errorf("bad callee %d", callee)
	}
	label := prof.Labeler(top.Key)
	if !strings.Contains(label, "main") || !strings.Contains(label, "leaf") {
		t.Errorf("label %q should name main->leaf", label)
	}
	// Root edge labels as <root>.
	rootLabel := prof.Labeler(prof.Entries()[1].Key)
	if !strings.Contains(rootLabel, "<root>") {
		t.Errorf("root label %q", rootLabel)
	}
}

func TestFieldAccessCounts(t *testing.T) {
	p, cl := testProgram()
	rt, _ := instrumentAndRun(t, p, &FieldAccess{})
	prof := rt.Profile()
	// f written 10x, g written 5x (odd iterations).
	if prof.Total() != 15 {
		t.Fatalf("total %d, want 15", prof.Total())
	}
	fID := uint64(p.FieldID(cl, 0))
	gID := uint64(p.FieldID(cl, 1))
	if prof.Count(fID) != 10 || prof.Count(gID) != 5 {
		t.Fatalf("f=%d g=%d, want 10/5", prof.Count(fID), prof.Count(gID))
	}
	if !strings.Contains(prof.Labeler(fID), "O.f") {
		t.Errorf("label %q", prof.Labeler(fID))
	}
}

// TestFieldAccessInstrumentAllocatesOnce: a block without field
// accesses keeps its backing array, and a block with some is rebuilt at
// exactly its new length.
func TestFieldAccessInstrumentAllocatesOnce(t *testing.T) {
	p, _ := testProgram()
	q := ir.CloneProgram(p)
	before := map[*ir.Block]*ir.Instr{}
	for _, b := range q.Main.Blocks {
		before[b] = &b.Instrs[0]
	}
	(&FieldAccess{}).Instrument(q, q.Main, 0)
	rebuilt := 0
	for _, b := range q.Main.Blocks {
		probed := b.HasProbe()
		if kept := &b.Instrs[0] == before[b]; kept == probed {
			t.Errorf("block %s: probed %v, kept its array %v", b.Name(), probed, kept)
		}
		if probed {
			rebuilt++
			if cap(b.Instrs) != len(b.Instrs) {
				t.Errorf("block %s: cap %d, len %d", b.Name(), cap(b.Instrs), len(b.Instrs))
			}
		}
	}
	if rebuilt == 0 || rebuilt == len(q.Main.Blocks) {
		t.Fatalf("%d of %d blocks have field accesses; the test needs both kinds", rebuilt, len(q.Main.Blocks))
	}
}

func TestBlockCountMatchesBranchSplit(t *testing.T) {
	p, _ := testProgram()
	rt, out := instrumentAndRun(t, p, &BlockCount{})
	prof := rt.Profile()
	// Every executed instruction's block got counted: total block
	// executions equals the number of block entries. Sanity: the "odd"
	// block ran 5 times; find it by label.
	var oddCount, contCount uint64
	for _, e := range prof.Entries() {
		lbl := prof.Labeler(e.Key)
		if strings.Contains(lbl, "odd") {
			oddCount = e.Count
		}
		if strings.Contains(lbl, "cont") {
			contCount = e.Count
		}
	}
	if oddCount != 5 {
		t.Errorf("odd block count %d, want 5", oddCount)
	}
	if contCount != 10 {
		t.Errorf("cont block count %d, want 10", contCount)
	}
	if out.Stats.Probes != prof.Total() {
		t.Errorf("probes %d != profile total %d", out.Stats.Probes, prof.Total())
	}
}

func TestEdgeProfileFlowConservation(t *testing.T) {
	p, _ := testProgram()
	rt, _ := instrumentAndRun(t, p, &EdgeProfile{})
	prof := rt.Profile()
	// The branch edges odd/cont must be 5/5, and every label resolves.
	var oddEdge, contEdge uint64
	for _, e := range prof.Entries() {
		lbl := prof.Labeler(e.Key)
		if strings.Contains(lbl, "->odd") {
			oddEdge = e.Count
		}
		if strings.Contains(lbl, "->cont") {
			contEdge += e.Count
		}
		if strings.HasPrefix(lbl, "edge#") {
			t.Errorf("unresolved edge label %q", lbl)
		}
	}
	if oddEdge != 5 {
		t.Errorf("odd edge %d, want 5", oddEdge)
	}
	if contEdge != 10 { // 5 direct from branch + 5 from odd block
		t.Errorf("edges into cont %d, want 10", contEdge)
	}
}

func TestValueProfileSeesParameters(t *testing.T) {
	p, _ := testProgram()
	rt, _ := instrumentAndRun(t, p, &ValueProfile{})
	prof := rt.Profile()
	// leaf(i) sees values 0..9, one each.
	if prof.NumEvents() != 10 {
		t.Fatalf("%d distinct values, want 10", prof.NumEvents())
	}
	for _, e := range prof.Entries() {
		if e.Count != 1 {
			t.Errorf("value %s count %d, want 1", prof.Labeler(e.Key), e.Count)
		}
	}
}

func TestPathProfileCountsAndDecodes(t *testing.T) {
	p, _ := testProgram()
	rt, _ := instrumentAndRun(t, p, &PathProfile{})
	prof := rt.Profile()
	if prof.Total() == 0 {
		t.Fatal("no paths recorded")
	}
	// main records one path per loop iteration (10, at the backedge)
	// plus one at return; leaf records one per call (10). The odd/even
	// split gives main two distinct iteration paths of 5 each.
	var mainPaths, leafPaths uint64
	for _, e := range prof.Entries() {
		lbl := prof.Labeler(e.Key)
		switch {
		case strings.HasPrefix(lbl, "main"):
			mainPaths += e.Count
		case strings.HasPrefix(lbl, "leaf"):
			leafPaths += e.Count
		default:
			t.Errorf("unattributed path %q", lbl)
		}
	}
	if leafPaths != 10 {
		t.Errorf("leaf paths %d, want 10", leafPaths)
	}
	if mainPaths < 11 {
		t.Errorf("main paths %d, want >= 11", mainPaths)
	}
	// The two iteration variants (odd/even) must be distinct path IDs
	// with count 5 each.
	fives := 0
	for _, e := range prof.Entries() {
		if strings.HasPrefix(prof.Labeler(e.Key), "main") && e.Count == 5 {
			fives++
		}
	}
	if fives != 2 {
		t.Errorf("expected two 5-count main paths (odd/even iterations), got %d", fives)
	}
}

func TestPathProfileSkipsPathExplosion(t *testing.T) {
	// A method with 2^20 paths must be skipped, not instrumented.
	b := ir.NewFunc("main", 0)
	c := b.At(b.EntryBlock())
	acc := c.Const(0)
	for i := 0; i < 20; i++ {
		one := c.Const(1)
		cond := c.Bin(ir.OpAnd, acc, one)
		tb := b.Block("")
		eb := b.Block("")
		jb := b.Block("")
		c.Branch(cond, tb, eb)
		tc := b.At(tb)
		tc.BinTo(ir.OpAdd, acc, acc, one)
		tc.Jump(jb)
		ec := b.At(eb)
		ec.Jump(jb)
		c = b.At(jb)
	}
	c.Return(acc)
	p := &ir.Program{Name: "t", Funcs: []*ir.Method{b.M}, Main: b.M}
	p.Seal()
	pp := &PathProfile{MaxPathsPerMethod: 1 << 16}
	pp.Instrument(p, b.M, 0)
	for _, blk := range b.M.Blocks {
		if blk.HasProbe() {
			t.Fatal("exploding method was instrumented")
		}
	}
}

func TestAssignCallSiteIDsStable(t *testing.T) {
	p, _ := testProgram()
	q := ir.CloneProgram(p)
	n := AssignCallSiteIDs(q)
	if n < 2 {
		t.Fatalf("too few sites: %d", n)
	}
	seen := map[int64]bool{}
	for _, m := range q.Methods() {
		for _, b := range m.Blocks {
			for i := range b.Instrs {
				switch b.Instrs[i].Op {
				case ir.OpCall, ir.OpCallVirt, ir.OpSpawn:
					id := b.Instrs[i].Imm
					if id == 0 {
						t.Error("unassigned call site")
					}
					if seen[id] {
						t.Errorf("duplicate site ID %d", id)
					}
					seen[id] = true
				}
			}
		}
	}
}

func TestInstrumentMethodsSelective(t *testing.T) {
	p, _ := testProgram()
	q := ir.CloneProgram(p)
	InstrumentMethods(q, []Instrumenter{&FieldAccess{}}, func(m *ir.Method) bool {
		return m.Name == "main"
	})
	for _, m := range q.Methods() {
		has := false
		for _, b := range m.Blocks {
			has = has || b.HasProbe()
		}
		if m.Name == "main" && !has {
			t.Error("main not instrumented")
		}
		if m.Name == "leaf" && has {
			t.Error("leaf instrumented despite filter")
		}
	}
}
