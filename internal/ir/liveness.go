package ir

// Uses appends the registers read by the instruction to dst and returns
// it. OpArrayStore reads its Dst operand (the array register).
func (in *Instr) Uses(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != NoReg {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case OpNop, OpConst, OpNew, OpYield, OpProbe, OpCheckedProbe, OpJump,
		OpCheck, OpLoopCheck, OpIO:
		if in.Op == OpProbe || in.Op == OpCheckedProbe {
			if in.Probe != nil && (in.Probe.Kind == ProbeValue || in.Probe.Kind == ProbeReceiver) {
				add(in.Probe.Reg)
			}
		}
	case OpMove, OpNeg, OpNot, OpArrayLen, OpNewArray, OpGetField, OpJoin,
		OpPrint, OpBranch, OpReturn, OpClassOf:
		add(in.A)
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE, OpArrayLoad:
		add(in.A)
		add(in.B)
	case OpPutField:
		add(in.A) // value
		add(in.B) // object
	case OpArrayStore:
		add(in.Dst) // array (read, not written)
		add(in.A)   // value
		add(in.B)   // index
	case OpCall, OpCallVirt, OpSpawn:
		for _, r := range in.Args {
			add(r)
		}
	}
	return dst
}

// Def returns the register written by the instruction, or NoReg.
func (in *Instr) Def() Reg {
	switch in.Op {
	case OpConst, OpMove, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr,
		OpXor, OpShl, OpShr, OpNeg, OpNot, OpCmpEQ, OpCmpNE, OpCmpLT,
		OpCmpLE, OpCmpGT, OpCmpGE, OpNew, OpGetField, OpNewArray,
		OpArrayLoad, OpArrayLen, OpCall, OpCallVirt, OpSpawn, OpJoin,
		OpClassOf:
		return in.Dst
	}
	return NoReg
}

// Liveness holds per-block live-in/live-out register sets as bitsets.
// It is the representative "late compiler phase" that runs after code
// duplication, so its cost contributes to the compile-time increase the
// paper reports in Table 2.
type Liveness struct {
	NumRegs int
	LiveIn  map[*Block][]uint64
	LiveOut map[*Block][]uint64
}

// ComputeLiveness runs an iterative backward dataflow over the method.
// A successor that is not one of the method's blocks (HasBlock), which
// only an unverified program has, contributes nothing.
func (m *Method) ComputeLiveness() *Liveness {
	words := (m.NumRegs + 63) / 64
	lv := &Liveness{
		NumRegs: m.NumRegs,
		LiveIn:  make(map[*Block][]uint64, len(m.Blocks)),
		LiveOut: make(map[*Block][]uint64, len(m.Blocks)),
	}
	gen := make(map[*Block][]uint64, len(m.Blocks))
	kill := make(map[*Block][]uint64, len(m.Blocks))
	var scratch []Reg
	for _, b := range m.Blocks {
		g := make([]uint64, words)
		k := make([]uint64, words)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			scratch = in.Uses(scratch[:0])
			for _, r := range scratch {
				if !bitGet(k, r) {
					bitSet(g, r)
				}
			}
			if d := in.Def(); d != NoReg {
				bitSet(k, d)
			}
		}
		gen[b], kill[b] = g, k
		lv.LiveIn[b] = make([]uint64, words)
		lv.LiveOut[b] = make([]uint64, words)
	}
	for changed := true; changed; {
		changed = false
		for i := len(m.Blocks) - 1; i >= 0; i-- {
			b := m.Blocks[i]
			out := lv.LiveOut[b]
			for w := range out {
				out[w] = 0
			}
			for _, s := range b.Succs() {
				if !m.HasBlock(s) {
					continue
				}
				sin := lv.LiveIn[s]
				for w := range out {
					out[w] |= sin[w]
				}
			}
			in := lv.LiveIn[b]
			for w := range in {
				nw := gen[b][w] | (out[w] &^ kill[b][w])
				if nw != in[w] {
					in[w] = nw
					changed = true
				}
			}
		}
	}
	return lv
}

// LiveInAt reports whether register r is live at entry to block b.
func (lv *Liveness) LiveInAt(b *Block, r Reg) bool { return bitGet(lv.LiveIn[b], r) }

func bitSet(s []uint64, r Reg) {
	if int(r) >= 0 && int(r) < len(s)*64 {
		s[r/64] |= 1 << (uint(r) % 64)
	}
}

func bitGet(s []uint64, r Reg) bool {
	if int(r) < 0 || int(r) >= len(s)*64 {
		return false
	}
	return s[r/64]&(1<<(uint(r)%64)) != 0
}
