package compile

import "instrsample/internal/ir"

// Optimize runs the baseline optimization pipeline on a method — the
// stand-in for Jalapeño's O2 level at which all experiment code is
// compiled (§4.1): local constant folding and copy propagation, dead-code
// elimination, and jump threading. Besides making the baseline honest,
// these passes give the compile-time measurements of Table 2 a realistic
// front half: the sampling transform runs *after* them, so only the late
// phases (liveness, layout) are doubled by code duplication.
//
// It returns the number of instructions removed or simplified.
func Optimize(m *ir.Method) int { return newOptimizer(m).optimize(m) }

// optimizer holds the tables of the block-local passes. Compile makes
// one and optimizes every method with it, and each pass clears its
// table for each block, so a compile makes them once instead of once
// per block, method and round.
type optimizer struct {
	known  map[ir.Reg]int64  // foldConstants: registers' constant values
	avail  map[exprKey]expr  // localCSE: available expressions
	copyOf map[ir.Reg]ir.Reg // propagateCopies: moves still in force
}

// newOptimizer makes the tables for optimizing ms, each sized to the
// longest block among them, which bounds the entries a pass puts in
// one, so they do not grow by doubling.
func newOptimizer(ms ...*ir.Method) *optimizer {
	longest := 0
	for _, m := range ms {
		for _, b := range m.Blocks {
			longest = max(longest, len(b.Instrs))
		}
	}
	return &optimizer{
		known:  make(map[ir.Reg]int64, longest),
		avail:  make(map[exprKey]expr, longest),
		copyOf: make(map[ir.Reg]ir.Reg, longest),
	}
}

func (o *optimizer) optimize(m *ir.Method) int {
	changed := 0
	defs := newDefClock(m)
	// To a fixpoint, bounded to keep compile times predictable.
	for round := 0; round < 4; round++ {
		n := o.foldConstants(m) + o.localCSE(m, defs) + o.propagateCopies(m, defs) +
			eliminateDeadCode(m) + threadJumps(m)
		changed += n
		if n == 0 {
			break
		}
	}
	// Loop analysis runs in the front half as well (inlining and layout
	// heuristics would consume it); it keeps the front/back compile-time
	// split representative of a real O2 pipeline.
	m.ComputeDominators()
	m.Backedges()
	m.RemoveUnreachable()
	return changed
}

// exprKey is a pure computation localCSE can find again.
type exprKey struct {
	op   ir.Op
	a, b ir.Reg
	imm  int64
}

// expr is an expression computed into dst at time at.
type expr struct {
	dst ir.Reg
	at  uint32
}

// localCSE eliminates common pure subexpressions within a block: a
// repeated (op, a, b, imm) computation over unmodified operands becomes a
// register copy, which copy propagation then folds away. An expression
// stays available until its dst or one of its a and b fields is
// redefined; unused fields count too (a def of r0 kills every constant,
// whose A and B are 0).
func (o *optimizer) localCSE(m *ir.Method, defs *defClock) int {
	changed := 0
	avail := o.avail
	for _, blk := range m.Blocks {
		clear(avail)
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			defs.now++
			cseable := isPure(in.Op) && in.Op != ir.OpMove
			if cseable {
				k := exprKey{op: in.Op, a: in.A, b: in.B, imm: in.Imm}
				if e, ok := avail[k]; ok && e.dst != in.Dst &&
					max(defs.lastDef(e.dst), defs.lastDef(k.a), defs.lastDef(k.b)) <= e.at {
					dst := in.Dst
					*in = ir.Instr{Op: ir.OpMove, Dst: dst, A: e.dst}
					changed++
					defs.define(dst)
					continue
				}
				d := in.Dst
				defs.define(d)
				// Self-referential expressions (acc = acc+x) are not
				// available afterwards: the def killed the operand.
				if k.a != d && k.b != d {
					avail[k] = expr{dst: d, at: defs.now}
				}
				continue
			}
			if d := in.Def(); d != ir.NoReg {
				defs.define(d)
			}
		}
	}
	return changed
}

// defClock gives the instructions that one Optimize call's passes visit
// increasing times, and keeps the time of each register's last
// definition. A fact made at time t holds while no register it names
// has been defined after t, so a definition kills every fact naming its
// register with one store; scanning the facts instead made the passes
// quadratic in block length. The clock never restarts, so definitions
// seen by earlier blocks and passes are older than any current fact.
type defClock struct {
	now  uint32
	last []uint32 // registers in [0, NumRegs)
	// far holds the other registers, which are legal input here
	// because Verify runs after the optimizer.
	far map[ir.Reg]uint32
}

func newDefClock(m *ir.Method) *defClock {
	return &defClock{last: make([]uint32, m.NumRegs)}
}

// define records that the current instruction defines r.
func (c *defClock) define(r ir.Reg) {
	if r >= 0 && int(r) < len(c.last) {
		c.last[r] = c.now
		return
	}
	if c.far == nil {
		c.far = make(map[ir.Reg]uint32)
	}
	c.far[r] = c.now
}

// lastDef returns the time of r's last definition, 0 if none.
func (c *defClock) lastDef(r ir.Reg) uint32 {
	if r >= 0 && int(r) < len(c.last) {
		return c.last[r]
	}
	return c.far[r]
}

// foldConstants evaluates arithmetic over registers whose values are
// known constants within a block (local value tracking only — no
// cross-block propagation, matching a quick O2 local pass).
func (o *optimizer) foldConstants(m *ir.Method) int {
	changed := 0
	known := o.known
	for _, b := range m.Blocks {
		clear(known)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpConst:
				known[in.Dst] = in.Imm
				continue
			case ir.OpMove:
				if v, ok := known[in.A]; ok {
					in.Op = ir.OpConst
					in.Imm = v
					in.A = 0
					known[in.Dst] = v
					changed++
					continue
				}
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
				ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
				ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE,
				ir.OpCmpGT, ir.OpCmpGE:
				va, okA := known[in.A]
				vb, okB := known[in.B]
				if okA && okB {
					if v, ok := evalBinop(in.Op, va, vb); ok {
						in.Op = ir.OpConst
						in.Imm = v
						in.A, in.B = 0, 0
						known[in.Dst] = v
						changed++
						continue
					}
				}
			case ir.OpNeg:
				if v, ok := known[in.A]; ok {
					in.Op = ir.OpConst
					in.Imm = -v
					known[in.Dst] = -v
					changed++
					continue
				}
			case ir.OpNot:
				if v, ok := known[in.A]; ok {
					in.Op = ir.OpConst
					in.Imm = ^v
					known[in.Dst] = ^v
					changed++
					continue
				}
			}
			// Anything else invalidates its destination.
			if d := in.Def(); d != ir.NoReg {
				delete(known, d)
			}
		}
	}
	return changed
}

func evalBinop(op ir.Op, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false // preserve the trap
		}
		return a / b, true
	case ir.OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << (uint64(b) & 63), true
	case ir.OpShr:
		return a >> (uint64(b) & 63), true
	case ir.OpCmpEQ:
		return b2i(a == b), true
	case ir.OpCmpNE:
		return b2i(a != b), true
	case ir.OpCmpLT:
		return b2i(a < b), true
	case ir.OpCmpLE:
		return b2i(a <= b), true
	case ir.OpCmpGT:
		return b2i(a > b), true
	case ir.OpCmpGE:
		return b2i(a >= b), true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// propagateCopies rewrites uses of move destinations to their sources
// within a block, when neither register is redefined in between.
func (o *optimizer) propagateCopies(m *ir.Method, defs *defClock) int {
	changed := 0
	// copyOf[d] = s is the move d = s, which stays d's last definition
	// (any other deletes it); it holds while s has not been defined
	// since.
	copyOf := o.copyOf
	for _, b := range m.Blocks {
		clear(copyOf)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			defs.now++
			// Rewrite uses.
			rewrite := func(r *ir.Reg) {
				if s, ok := copyOf[*r]; ok && defs.lastDef(s) < defs.lastDef(*r) {
					*r = s
					changed++
				}
			}
			switch in.Op {
			case ir.OpArrayStore:
				rewrite(&in.Dst) // array operand is a use
				rewrite(&in.A)
				rewrite(&in.B)
			default:
				rewrite(&in.A)
				rewrite(&in.B)
				for j := range in.Args {
					rewrite(&in.Args[j])
				}
				if in.Probe != nil && (in.Probe.Kind == ir.ProbeValue || in.Probe.Kind == ir.ProbeReceiver) {
					rewrite(&in.Probe.Reg)
				}
			}
			if in.Op == ir.OpMove && in.Dst != in.A {
				defs.define(in.Dst)
				copyOf[in.Dst] = in.A
				continue
			}
			if d := in.Def(); d != ir.NoReg {
				defs.define(d)
				delete(copyOf, d)
			}
		}
	}
	return changed
}

// eliminateDeadCode removes side-effect-free instructions whose results
// are never used (per-method liveness; conservative across calls, field
// and array operations, probes and terminators).
func eliminateDeadCode(m *ir.Method) int {
	lv := m.ComputeLiveness()
	changed := 0
	for _, b := range m.Blocks {
		// Walk backwards, tracking liveness within the block from the
		// block's live-out set.
		live := append([]uint64(nil), lv.LiveOut[b]...)
		dead := make([]bool, len(b.Instrs))
		var scratch []ir.Reg
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			d := in.Def()
			if isPure(in.Op) && d != ir.NoReg && !bitGet(live, d) {
				dead[i] = true
				changed++
				continue
			}
			if d != ir.NoReg {
				bitClear(live, d)
			}
			scratch = in.Uses(scratch[:0])
			for _, u := range scratch {
				bitSet(live, u)
			}
		}
		if changed > 0 {
			out := b.Instrs[:0]
			for i := range b.Instrs {
				if !dead[i] {
					out = append(out, b.Instrs[i])
				}
			}
			b.Instrs = out
		}
	}
	return changed
}

// isPure reports whether the op has no side effects beyond writing Dst.
func isPure(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpMove, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd,
		ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpNeg, ir.OpNot,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT,
		ir.OpCmpGE:
		return true
	// Div/Rem can trap; New/NewArray allocate observable objects; loads
	// can trap on null/bounds. All stay.
	default:
		return false
	}
}

// threadJumps retargets edges that point at empty forwarding blocks
// (a single unconditional jump) directly to their destinations.
func threadJumps(m *ir.Method) int {
	forward := make(map[*ir.Block]*ir.Block)
	for _, b := range m.Blocks {
		if len(b.Instrs) == 1 && b.Instrs[0].Op == ir.OpJump && b.Instrs[0].BackedgeMask == 0 {
			forward[b] = b.Instrs[0].Targets[0]
		}
	}
	resolve := func(b *ir.Block) *ir.Block {
		seen := 0
		for {
			next, ok := forward[b]
			if !ok || next == b || seen > len(forward) {
				return b
			}
			b = next
			seen++
		}
	}
	changed := 0
	for _, b := range m.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		for i, tgt := range t.Targets {
			if r := resolve(tgt); r != tgt {
				t.Targets[i] = r
				changed++
			}
		}
	}
	if changed > 0 {
		m.RecomputePreds()
	}
	return changed
}

func bitSet(s []uint64, r ir.Reg) {
	if int(r) >= 0 && int(r) < len(s)*64 {
		s[r/64] |= 1 << (uint(r) % 64)
	}
}

func bitClear(s []uint64, r ir.Reg) {
	if int(r) >= 0 && int(r) < len(s)*64 {
		s[r/64] &^= 1 << (uint(r) % 64)
	}
}

func bitGet(s []uint64, r ir.Reg) bool {
	if int(r) < 0 || int(r) >= len(s)*64 {
		return false
	}
	return s[r/64]&(1<<(uint(r)%64)) != 0
}
