package vm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"

	"instrsample/internal/ir"
)

// Registers of the programs clearProgram builds.
const (
	rRef  ir.Reg = 1 // the reference an integer write must clear
	rA    ir.Reg = 2 // integer operand 6
	rB    ir.Reg = 3 // integer operand 3
	rObj  ir.Reg = 4 // an instance of C
	rArr  ir.Reg = 5 // an array of two elements
	rIdx  ir.Reg = 6 // index 1
	rLen  ir.Reg = 7 // length 2
	rTmp  ir.Reg = 8 // the destination of the other sub-operation
	rBack ir.Reg = 9 // a field or element read back
	rOut  ir.Reg = 10
)

// intWrite is an instruction of opcode op that writes an integer: into
// register dst, or into rObj's field (putfield) or rArr's element at
// rIdx (astore), whose integer operands are rA and rB. clearProgram
// fills in the class of a field access.
func intWrite(op ir.Op, dst ir.Reg) ir.Instr {
	switch op {
	case ir.OpConst:
		return ir.Instr{Op: op, Dst: dst, Imm: 7}
	case ir.OpMove, ir.OpNeg, ir.OpNot:
		return ir.Instr{Op: op, Dst: dst, A: rA}
	case ir.OpClassOf:
		return ir.Instr{Op: op, Dst: dst, A: rObj}
	case ir.OpArrayLen:
		return ir.Instr{Op: op, Dst: dst, A: rArr}
	case ir.OpGetField:
		return ir.Instr{Op: op, Dst: dst, A: rObj}
	case ir.OpArrayLoad:
		return ir.Instr{Op: op, Dst: dst, A: rArr, B: rIdx}
	case ir.OpPutField:
		return ir.Instr{Op: op, A: rA, B: rObj}
	case ir.OpArrayStore:
		return ir.Instr{Op: op, Dst: rArr, A: rA, B: rIdx}
	}
	return ir.Instr{Op: op, Dst: dst, A: rA, B: rB}
}

// clearCase is one integer write over a reference: seq, the body of
// the block that writes it, runs as the superinstruction kind ("" for
// base tokens). The reference sits in rRef, or with slot set in the
// field (OpPutField) or element (OpArrayStore) that seq overwrites.
type clearCase struct {
	name string
	kind string
	seq  []ir.Instr
	slot ir.Op
}

// clearCases lists every integer-writing token family: each base token
// that writes an integer, each compare+branch, and each pair and triple
// superinstruction with the reference in every slot it writes.
func clearCases() []clearCase {
	var cases []clearCase
	for _, op := range []ir.Op{
		ir.OpConst, ir.OpMove, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpNeg, ir.OpNot,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
		ir.OpClassOf, ir.OpArrayLen, ir.OpGetField, ir.OpArrayLoad,
	} {
		cases = append(cases, clearCase{name: op.String(), seq: []ir.Instr{intWrite(op, rRef)}})
	}
	for _, slot := range []ir.Op{ir.OpPutField, ir.OpArrayStore} {
		// A nop keeps astore from fusing with the block's jump.
		seq := []ir.Instr{intWrite(slot, 0), {Op: ir.OpNop}}
		cases = append(cases, clearCase{name: slot.String() + "/slot", seq: seq, slot: slot})
	}
	for op, tok := range cmpBrToks {
		seq := []ir.Instr{intWrite(op, rRef), {Op: ir.OpBranch, A: rRef}}
		cases = append(cases, clearCase{name: superNames[tok], kind: superNames[tok], seq: seq})
	}
	cases = append(cases, clearCase{name: "add+yield+jmp", kind: "add+yield+jmp",
		seq: []ir.Instr{intWrite(ir.OpAdd, rRef), {Op: ir.OpYield}, {Op: ir.OpJump}}})
	cases = append(cases, clearCase{name: "astore+jmp/slot", kind: "astore+jmp",
		seq: []ir.Instr{intWrite(ir.OpArrayStore, 0), {Op: ir.OpJump}}, slot: ir.OpArrayStore})
	for ops, tok := range pairToks {
		kind := superNames[tok]
		for i, op := range ops {
			seq := []ir.Instr{intWrite(ops[0], rTmp), intWrite(ops[1], rTmp)}
			c := clearCase{name: kind + []string{"/first", "/second"}[i], kind: kind, seq: seq}
			if op == ir.OpPutField || op == ir.OpArrayStore {
				c.name, c.slot = kind+"/slot", op
			} else {
				seq[i] = intWrite(op, rRef)
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// clearUses are the ways clearProgram uses the overwritten value as an
// object, each with the reference it overwrites and the trap the
// integer must cause.
var clearUses = []struct {
	op   ir.Op
	ref  ir.Op
	trap string
}{
	{ir.OpGetField, ir.OpNew, "getfield on null"},
	{ir.OpArrayLoad, ir.OpNewArray, "aload on null"},
	{ir.OpClassOf, ir.OpNew, "classof on null"},
	{ir.OpJoin, ir.OpSpawn, "join on non-thread"},
}

// clearProgram builds main as three blocks: entry puts the integer
// operands, rObj, rArr and a reference of the kind use needs in place
// (the reference in rRef, and also in the slot for a slot case); seq
// runs c.seq; use reads a slot back into rBack and uses rBack or rRef
// as an object, which must trap.
func clearProgram(c clearCase, use ir.Op, ref ir.Op) *ir.Program {
	cl := &ir.Class{Name: "C", FieldNames: []string{"f"}}
	worker := ir.NewFunc("worker", 0)
	wc := worker.At(worker.EntryBlock())
	wc.Return(wc.Const(1))
	mb := ir.NewFunc("main", 0)
	mb.M.NumRegs = int(rOut) + 1
	entry, seq, useB := mb.EntryBlock(), mb.Block("seq"), mb.Block("use")
	for _, in := range []ir.Instr{
		{Op: ir.OpConst, Dst: rA, Imm: 6},
		{Op: ir.OpConst, Dst: rB, Imm: 3},
		{Op: ir.OpConst, Dst: rIdx, Imm: 1},
		{Op: ir.OpConst, Dst: rLen, Imm: 2},
		{Op: ir.OpNew, Dst: rObj, Class: cl},
		{Op: ir.OpNewArray, Dst: rArr, A: rLen},
	} {
		entry.Append(in)
	}
	switch ref {
	case ir.OpNew:
		entry.Append(ir.Instr{Op: ir.OpNew, Dst: rRef, Class: cl})
	case ir.OpNewArray:
		entry.Append(ir.Instr{Op: ir.OpNewArray, Dst: rRef, A: rLen})
	case ir.OpSpawn:
		entry.Append(ir.Instr{Op: ir.OpSpawn, Dst: rRef, Method: worker.M})
	}
	obj := rRef
	switch c.slot {
	case ir.OpPutField:
		entry.Append(ir.Instr{Op: ir.OpPutField, A: rRef, B: rObj, Class: cl})
		useB.Append(ir.Instr{Op: ir.OpGetField, Dst: rBack, A: rObj, Class: cl})
		obj = rBack
	case ir.OpArrayStore:
		entry.Append(ir.Instr{Op: ir.OpArrayStore, Dst: rArr, A: rRef, B: rIdx})
		useB.Append(ir.Instr{Op: ir.OpArrayLoad, Dst: rBack, A: rArr, B: rIdx})
		obj = rBack
	}
	entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{seq}})
	for _, in := range c.seq {
		switch in.Op {
		case ir.OpGetField, ir.OpPutField:
			in.Class = cl
		case ir.OpJump:
			in.Targets = []*ir.Block{useB}
		case ir.OpBranch:
			in.Targets = []*ir.Block{useB, useB}
		}
		seq.Append(in)
	}
	if !seq.Instrs[len(seq.Instrs)-1].IsTerminator() {
		seq.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{useB}})
	}
	useB.Append(ir.Instr{Op: use, Dst: rOut, A: obj, B: rIdx, Class: cl})
	useB.Append(ir.Instr{Op: ir.OpReturn, A: rOut})
	p := &ir.Program{Name: "clear", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{mb.M, worker.M}, Main: mb.M}
	p.Seal()
	return p
}

// TestIntegerWriteClearsReference overwrites a reference with an
// integer through every integer-writing token family, in a register or
// in a field or element slot read back, and then uses the value as an
// object. The fast path clears a reference only when one is there
// (setI, set), so a missed clear would leave the object usable: both
// dispatchers must trap at the same pc with equal Stats, with and
// without an observer (whose yield wake runs add+yield+jmp's add twice).
func TestIntegerWriteClearsReference(t *testing.T) {
	for _, c := range clearCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, u := range clearUses {
				for _, obs := range []Observer{nil, nopObserver{}} {
					requireClearTrap(t, c, u.op, u.ref, u.trap, obs)
				}
			}
		})
	}
}

// requireClearTrap runs clearProgram(c, use, ref) on both dispatchers
// under obs and requires the trap want at the same place, equal Stats,
// every instruction fused and c's superinstruction run.
func requireClearTrap(t *testing.T, c clearCase, use, ref ir.Op, want string, obs Observer) {
	t.Helper()
	var errs [2]error
	var stats [2]Stats
	for i, reference := range []bool{false, true} {
		v := New(clearProgram(c, use, ref), Config{Reference: reference, Observer: obs, MaxCycles: 1 << 20})
		_, errs[i] = v.Run()
		stats[i] = v.Stats()
		if reference {
			break
		}
		fs := v.FusionStats()
		if fs.Instrs != stats[i].Instrs || c.kind != "" && fs.ByKind[c.kind] == 0 {
			t.Fatalf("%s use, observer %v: %d of %d instructions fused, kinds %v, want %q run",
				use, obs != nil, fs.Instrs, stats[i].Instrs, fs.ByKind, c.kind)
		}
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s use, observer %v: %s dispatcher got %v, want a %q trap",
				use, obs != nil, []string{"fast", "reference"}[i], err, want)
		}
	}
	if errs[0].Error() != errs[1].Error() || stats[0] != stats[1] {
		t.Fatalf("%s use, observer %v: fast %v %+v, reference %v %+v", use, obs != nil, errs[0], stats[0], errs[1], stats[1])
	}
}

// nopObserver takes every event and does nothing with it.
type nopObserver struct{}

func (nopObserver) OnEnter(*Thread, *Frame)                    {}
func (nopObserver) OnExit(*Thread, *Frame)                     {}
func (nopObserver) OnTransfer(*Thread, *Frame, *ir.Instr, int) {}
func (nopObserver) OnCheck(*Thread, *Frame, *ir.Instr, bool)   {}
func (nopObserver) OnProbe(*Thread, *Frame, *ir.Probe)         {}
func (nopObserver) OnYield(*Thread, *Frame)                    {}

// TestFusedStoresBarrierFree keeps the GC write barrier off the fused
// loop: in runFusedBlocks, a register, field or element is written
// through setI or set, which store a pointer only when one changes
// (DESIGN.md §7.5). The only whole-Value assignment allowed there is a
// new reference, RefVal(...).
func TestFusedStoresBarrierFree(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fuse.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var loop *ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "runFusedBlocks" {
			loop = fd
		}
	}
	if loop == nil {
		t.Fatal("runFusedBlocks not found in fuse.go")
	}
	slot := func(e ast.Expr) bool {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return false
		}
		switch x := ix.X.(type) {
		case *ast.Ident:
			return x.Name == "regs"
		case *ast.SelectorExpr:
			return x.Sel.Name == "Fields" || x.Sel.Name == "Elems"
		}
		return false
	}
	refVal := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "RefVal"
	}
	stores := 0
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if !slot(lhs) {
				continue
			}
			stores++
			if len(as.Rhs) != len(as.Lhs) || !refVal(as.Rhs[i]) {
				t.Errorf("fuse.go line %d: a register, field or element is assigned a whole Value; write it with setI or set",
					fset.Position(lhs.Pos()).Line)
			}
		}
		return true
	})
	if stores == 0 {
		t.Error("no RefVal store found in runFusedBlocks: the guard no longer sees the loop's stores")
	}
}

// TestCallPathStoresBarrierFree extends the store rule from the fused
// loop to the stores a call, a return or a probe makes (DESIGN.md
// §7.5). It parses call, virtual, ret and execProbe (interp.go) and
// pushFrame and newThread (vm.go) and fails on a register written as a
// whole Value other than a new reference, on a whole Frame or
// ProbeEvent stored at once, and on a store to a pointer-holding field
// of Frame or ProbeEvent, or to the stack Thread.Frames, that is
// neither a reslice of that field (which stores no pointer) nor inside
// an if whose condition reads it, as store, set and the register
// growth do.
func TestCallPathStoresBarrierFree(t *testing.T) {
	guarded := map[string][]string{
		"interp.go": {"call", "virtual", "ret", "execProbe"},
		"vm.go":     {"pushFrame", "newThread"},
	}
	// ptrs maps a field name to whether the field itself holds a
	// pointer; elems to whether its elements do.
	ptrs, elems := map[string]bool{}, map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(Frame{}), reflect.TypeOf(ProbeEvent{})} {
		for i := 0; i < typ.NumField(); i++ {
			fd := typ.Field(i)
			ptrs[fd.Name] = ptrs[fd.Name] || holdsPointer(fd.Type)
			if fd.Type.Kind() == reflect.Slice {
				elems[fd.Name] = elems[fd.Name] || holdsPointer(fd.Type.Elem())
			}
		}
	}
	ptrs["Frames"], elems["Frames"] = true, true
	regFile := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name == "regs" || x.Name == "nr"
		case *ast.SelectorExpr:
			return x.Sel.Name == "Regs"
		}
		return false
	}
	// pointerStore reports whether lhs stores a pointer into a frame,
	// the probe event or the stack.
	pointerStore := func(lhs ast.Expr) bool {
		switch x := lhs.(type) {
		case *ast.SelectorExpr:
			return ptrs[x.Sel.Name]
		case *ast.IndexExpr:
			sel, ok := x.X.(*ast.SelectorExpr)
			return ok && elems[sel.Sel.Name] && !regFile(sel)
		}
		return false
	}
	wholeStruct := func(rhs ast.Expr) bool {
		lit, ok := rhs.(*ast.CompositeLit)
		if !ok {
			return false
		}
		id, ok := lit.Type.(*ast.Ident)
		return ok && (id.Name == "Frame" || id.Name == "ProbeEvent")
	}
	refVal := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "RefVal"
	}
	// reads reports whether e mentions an expression printed as want.
	reads := func(e ast.Expr, want string) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if x, ok := n.(ast.Expr); ok && types.ExprString(x) == want {
				found = true
			}
			return !found
		})
		return found
	}
	fset := token.NewFileSet()
	guardedStores := 0
	for name, funcs := range guarded {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range funcs {
			var decl *ast.FuncDecl
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
					decl = fd
				}
			}
			if decl == nil {
				t.Fatalf("%s not found in %s", fn, name)
			}
			var stack []ast.Node
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				line := fset.Position(as.Pos()).Line
				for i, lhs := range as.Lhs {
					var rhs ast.Expr
					if len(as.Rhs) == len(as.Lhs) {
						rhs = as.Rhs[i]
					}
					switch ix, _ := lhs.(*ast.IndexExpr); {
					case ix != nil && regFile(ix.X):
						if rhs == nil || !refVal(rhs) {
							t.Errorf("%s line %d (%s): a register is assigned a whole Value; write it with set or setI", name, line, fn)
						}
					case isStar(lhs) || rhs != nil && wholeStruct(rhs):
						t.Errorf("%s line %d (%s): a whole Frame or ProbeEvent is stored; store its fields where they change", name, line, fn)
					case pointerStore(lhs):
						want := types.ExprString(lhs)
						if sl, ok := rhs.(*ast.SliceExpr); ok && sl.Low == nil && types.ExprString(sl.X) == want {
							guardedStores++
							continue // a reslice stores no pointer
						}
						behind := false
						for _, outer := range stack {
							if ifs, ok := outer.(*ast.IfStmt); ok && as.Pos() >= ifs.Body.Pos() && reads(ifs.Cond, want) {
								behind = true
							}
						}
						if !behind {
							t.Errorf("%s line %d (%s): %s is stored without checking that it changes; write it through store or behind such a check", name, line, fn, want)
						}
						guardedStores++
					}
				}
				return true
			})
		}
	}
	if guardedStores == 0 {
		t.Error("no guarded pointer store found: the test no longer sees the call path's stores")
	}
}

func isStar(e ast.Expr) bool {
	_, ok := e.(*ast.StarExpr)
	return ok
}

// holdsPointer reports whether a value of type typ holds a pointer the
// garbage collector traces, so that storing it costs a write barrier.
func holdsPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Func, reflect.Chan, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return typ.Len() > 0 && holdsPointer(typ.Elem())
	}
	return false
}
