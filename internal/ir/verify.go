package ir

import (
	"errors"
	"fmt"
)

// VerifyMode selects how strict Verify is about framework-specific
// structure.
type VerifyMode int

const (
	// VerifyBase checks structural well-formedness only.
	VerifyBase VerifyMode = iota
	// VerifyTransformed additionally checks the sampling-framework
	// invariants on a transformed method: checking code carries no
	// probes, duplicated code contains no internal backedges (every
	// loop backedge exits to checking code), and every OpCheck fires
	// into duplicated code while falling through to checking code.
	VerifyTransformed
)

// Verify validates a whole program. It returns an error describing the
// first few problems found.
func (p *Program) Verify(mode VerifyMode) error {
	if !p.sealed {
		return errors.New("ir: verify before Seal")
	}
	if p.Main == nil {
		return errors.New("ir: no main method")
	}
	if p.Main.NumParams != 0 {
		return fmt.Errorf("ir: main must take 0 params, has %d", p.Main.NumParams)
	}
	var errs []error
	for _, m := range p.methods {
		err := VerifyMethod(m, mode)
		if err == nil {
			err = p.verifyListed(m)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", m.FullName(), err))
			if len(errs) >= 8 {
				break
			}
		}
	}
	return errors.Join(errs...)
}

// verifyListed checks that every direct call and spawn in m targets a
// method p lists (Lists), and every new names a class p lists
// (ListsClass): a virtual call runs a method of the receiver's class,
// so an unlisted class would bring unlisted methods into the run.
func (p *Program) verifyListed(m *Method) error {
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch {
			case (in.Op == OpCall || in.Op == OpSpawn) && !p.Lists(in.Method):
				return fmt.Errorf("%s: instr %d (%s): callee %s is not a method of the program",
					b.Name(), i, in.Op, in.Method.FullName())
			case in.Op == OpNew && !p.ListsClass(in.Class):
				return fmt.Errorf("%s: instr %d (%s): class %s is not a class of the program",
					b.Name(), i, in.Op, in.Class.Name)
			}
		}
	}
	return nil
}

// VerifyMethod validates a single method.
func VerifyMethod(m *Method, mode VerifyMode) error {
	if len(m.Blocks) == 0 {
		return errors.New("no blocks")
	}
	if m.NumRegs < m.NumParams {
		return fmt.Errorf("NumRegs %d < NumParams %d", m.NumRegs, m.NumParams)
	}
	inMethod := make(map[*Block]bool, len(m.Blocks))
	for _, b := range m.Blocks {
		inMethod[b] = true
	}
	for _, b := range m.Blocks {
		if err := verifyBlock(m, b, inMethod); err != nil {
			return fmt.Errorf("%s: %w", b.Name(), err)
		}
	}
	if mode == VerifyTransformed {
		return verifyTransformed(m)
	}
	return nil
}

func verifyBlock(m *Method, b *Block, inMethod map[*Block]bool) error {
	if len(b.Instrs) == 0 {
		return errors.New("empty block")
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		isLast := i == len(b.Instrs)-1
		if in.IsTerminator() != isLast {
			if isLast {
				return fmt.Errorf("last instruction %s is not a terminator", in.Op)
			}
			return fmt.Errorf("terminator %s mid-block at index %d", in.Op, i)
		}
		if err := verifyOperands(m, in); err != nil {
			return fmt.Errorf("instr %d (%s): %w", i, in.Op, err)
		}
		for _, t := range in.Targets {
			if t == nil {
				return fmt.Errorf("instr %d (%s): nil target", i, in.Op)
			}
			if !inMethod[t] {
				return fmt.Errorf("instr %d (%s): target %s outside method", i, in.Op, t.Name())
			}
		}
	}
	return nil
}

func verifyOperands(m *Method, in *Instr) error {
	checkReg := func(r Reg, what string) error {
		if r == NoReg {
			return nil
		}
		if int(r) < 0 || int(r) >= m.NumRegs {
			return fmt.Errorf("%s register r%d out of range [0,%d)", what, r, m.NumRegs)
		}
		return nil
	}
	var scratch []Reg
	for _, r := range in.Uses(scratch) {
		if err := checkReg(r, "use"); err != nil {
			return err
		}
	}
	if err := checkReg(in.Def(), "def"); err != nil {
		return err
	}
	switch in.Op {
	case OpNew:
		if in.Class == nil {
			return errors.New("new without class")
		}
	case OpGetField, OpPutField:
		if in.Class == nil {
			return errors.New("field access without class")
		}
		if in.FieldSlot() < 0 || in.FieldSlot() >= in.Class.NumFields() {
			return fmt.Errorf("field slot %d out of range for %s", in.FieldSlot(), in.Class.Name)
		}
	case OpCall, OpSpawn:
		if in.Method == nil {
			return errors.New("call without method")
		}
		if len(in.Args) != in.Method.NumParams {
			return fmt.Errorf("call %s with %d args, wants %d",
				in.Method.FullName(), len(in.Args), in.Method.NumParams)
		}
	case OpCallVirt:
		if in.Name == "" {
			return errors.New("callvirt without name")
		}
		if len(in.Args) < 1 {
			return errors.New("callvirt without receiver")
		}
	case OpProbe, OpCheckedProbe:
		if in.Probe == nil {
			return errors.New("probe without payload")
		}
	case OpJump:
		if len(in.Targets) != 1 {
			return fmt.Errorf("jmp with %d targets", len(in.Targets))
		}
	case OpBranch, OpCheck, OpLoopCheck:
		if len(in.Targets) != 2 {
			return fmt.Errorf("%s with %d targets", in.Op, len(in.Targets))
		}
	case OpReturn:
		if len(in.Targets) != 0 {
			return errors.New("ret with targets")
		}
	case OpIO:
		if in.Imm < 0 {
			return fmt.Errorf("io with negative cost %d", in.Imm)
		}
	}
	return nil
}

// verifyTransformed checks the sampling-framework invariants (DESIGN.md
// §5, items 3 and 7).
func verifyTransformed(m *Method) error {
	// Checking code must not contain probes; duplicated code may.
	for _, b := range m.Blocks {
		if b.Kind != KindDuplicated && b.HasProbe() {
			for i := range b.Instrs {
				if b.Instrs[i].Op == OpCheckedProbe {
					// No-Duplication: guarded probes legitimately live in
					// checking code.
					continue
				}
				if b.Instrs[i].Op == OpProbe {
					return fmt.Errorf("%s: unguarded probe in %s code", b.Name(), b.Kind)
				}
			}
		}
		if b.Kind == KindCheckBlock {
			if len(b.Instrs) != 1 || b.Instrs[0].Op != OpCheck {
				return fmt.Errorf("%s: check block must hold a single check", b.Name())
			}
		}
	}
	// Every OpCheck fires into duplicated code and falls through to
	// non-duplicated code.
	for _, b := range m.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != OpCheck {
			continue
		}
		if t.Targets[0].Kind != KindDuplicated {
			return fmt.Errorf("%s: check fire-target %s is %s, want duplicated",
				b.Name(), t.Targets[0].Name(), t.Targets[0].Kind)
		}
		if t.Targets[1].Kind == KindDuplicated {
			return fmt.Errorf("%s: check else-target %s is duplicated", b.Name(), t.Targets[1].Name())
		}
	}
	// The duplicated subgraph must be acyclic: every cycle must pass
	// through checking code. Detect cycles restricted to duplicated
	// blocks (DFS with colors).
	color := make(map[*Block]int) // 0 white 1 grey 2 black
	var dfs func(b *Block) error
	dfs = func(b *Block) error {
		color[b] = 1
		t := b.Terminator()
		for i, s := range b.Succs() {
			if s == nil || s.Kind != KindDuplicated {
				continue
			}
			// A loop-check's stay-in-duplicated edge is a *counted*
			// backedge (the §2 N-iteration extension): it is bounded by
			// the frame's iteration budget, so it is exempt from the
			// acyclicity requirement.
			if t.Op == OpLoopCheck && i == 0 {
				continue
			}
			switch color[s] {
			case 1:
				return fmt.Errorf("backedge inside duplicated code: %s -> %s", b.Name(), s.Name())
			case 0:
				if err := dfs(s); err != nil {
					return err
				}
			}
		}
		color[b] = 2
		return nil
	}
	for _, b := range m.Blocks {
		if b.Kind == KindDuplicated && color[b] == 0 {
			if err := dfs(b); err != nil {
				return err
			}
		}
	}
	return nil
}
