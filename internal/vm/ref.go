package vm

import (
	"fmt"

	"instrsample/internal/ir"
)

// This file is the retained reference dispatch, selected by
// Config.Reference, and the one Run hands a program the fast path's
// streams cannot represent: the only per-instruction interpreter. It
// preserves the original interpreter verbatim: the scheduler rotates a
// re-slicing []*Thread queue, every instruction runs the
// CostModel.opCost switch and the cycle-budget comparison, and every
// call allocates a fresh frame and argument slice. It exists so the
// differential tests (differential_test.go) can run any program under
// both dispatchers and require bit-identical Results; it is not meant to
// be fast. Keep semantic fixes (like the spawn arity trap) mirrored in
// both dispatchers (this file and fuse.go).

// runReference is the reference scheduler loop (the original VM.Run
// body). It uses v.refq, not the fast path's ring buffer.
func (v *VM) runReference() (*Result, error) {
	main := v.newThreadRef(v.prog.Main, nil)
	v.refq = append(v.refq, main)

	for len(v.refq) > 0 {
		t := v.refq[0]
		if t.State != StateRunnable {
			v.refq = v.refq[1:]
			continue
		}
		if v.cfg.Sched != nil {
			v.cfg.Sched(t.ID)
		}
		reschedule, err := v.runThreadRef(t)
		if err != nil {
			return nil, err
		}
		if reschedule || t.State != StateRunnable {
			// Rotate: move to the back if still runnable.
			v.refq = v.refq[1:]
			if t.State == StateRunnable {
				v.refq = append(v.refq, t)
			}
			v.quantum = v.cfg.Quantum
		}
	}
	return v.finish(main)
}

// runThreadRef executes t until a scheduling event, checking the cycle
// budget and running the opCost switch on every instruction.
func (v *VM) runThreadRef(t *Thread) (bool, error) {
	f := t.Top()
	if f.PC == 0 {
		v.touchCode(f.Block)
	}
	for {
		if v.cycles > v.cfg.MaxCycles {
			return false, v.trap(t, fmt.Sprintf("cycle budget exhausted (%d)", v.cfg.MaxCycles))
		}
		in := &f.Block.Instrs[f.PC]
		v.cycles += uint64(v.cost.opCost(in) * f.costScale)
		v.stats.Instrs++

		switch in.Op {
		case ir.OpNop:

		case ir.OpConst:
			f.Regs[in.Dst] = Value{I: in.Imm}
		case ir.OpMove:
			f.Regs[in.Dst] = f.Regs[in.A]

		case ir.OpAdd:
			f.Regs[in.Dst] = Value{I: f.Regs[in.A].I + f.Regs[in.B].I}
		case ir.OpSub:
			f.Regs[in.Dst] = Value{I: f.Regs[in.A].I - f.Regs[in.B].I}
		case ir.OpMul:
			f.Regs[in.Dst] = Value{I: f.Regs[in.A].I * f.Regs[in.B].I}
		case ir.OpDiv:
			d := f.Regs[in.B].I
			if d == 0 {
				return false, v.trap(t, "division by zero")
			}
			f.Regs[in.Dst] = Value{I: f.Regs[in.A].I / d}
		case ir.OpRem:
			d := f.Regs[in.B].I
			if d == 0 {
				return false, v.trap(t, "remainder by zero")
			}
			f.Regs[in.Dst] = Value{I: f.Regs[in.A].I % d}
		case ir.OpAnd:
			f.Regs[in.Dst] = Value{I: f.Regs[in.A].I & f.Regs[in.B].I}
		case ir.OpOr:
			f.Regs[in.Dst] = Value{I: f.Regs[in.A].I | f.Regs[in.B].I}
		case ir.OpXor:
			f.Regs[in.Dst] = Value{I: f.Regs[in.A].I ^ f.Regs[in.B].I}
		case ir.OpShl:
			f.Regs[in.Dst] = Value{I: f.Regs[in.A].I << (uint64(f.Regs[in.B].I) & 63)}
		case ir.OpShr:
			f.Regs[in.Dst] = Value{I: f.Regs[in.A].I >> (uint64(f.Regs[in.B].I) & 63)}
		case ir.OpNeg:
			f.Regs[in.Dst] = Value{I: -f.Regs[in.A].I}
		case ir.OpNot:
			f.Regs[in.Dst] = Value{I: ^f.Regs[in.A].I}

		case ir.OpCmpEQ:
			f.Regs[in.Dst] = boolVal(cmpValues(f.Regs[in.A], f.Regs[in.B]) == 0)
		case ir.OpCmpNE:
			f.Regs[in.Dst] = boolVal(cmpValues(f.Regs[in.A], f.Regs[in.B]) != 0)
		case ir.OpCmpLT:
			f.Regs[in.Dst] = boolVal(f.Regs[in.A].I < f.Regs[in.B].I)
		case ir.OpCmpLE:
			f.Regs[in.Dst] = boolVal(f.Regs[in.A].I <= f.Regs[in.B].I)
		case ir.OpCmpGT:
			f.Regs[in.Dst] = boolVal(f.Regs[in.A].I > f.Regs[in.B].I)
		case ir.OpCmpGE:
			f.Regs[in.Dst] = boolVal(f.Regs[in.A].I >= f.Regs[in.B].I)

		case ir.OpClassOf:
			o := f.Regs[in.A].R
			if o == nil {
				return false, v.trap(t, "classof on null")
			}
			if o.Class != nil {
				f.Regs[in.Dst] = Value{I: int64(o.Class.ID)}
			} else {
				f.Regs[in.Dst] = Value{I: -1}
			}
		case ir.OpNew:
			f.Regs[in.Dst] = RefVal(NewInstance(in.Class))
		case ir.OpGetField:
			o := f.Regs[in.A].R
			if o == nil || o.Fields == nil {
				return false, v.trap(t, "getfield on null or non-object")
			}
			f.Regs[in.Dst] = o.Fields[in.FieldSlot()]
		case ir.OpPutField:
			o := f.Regs[in.B].R
			if o == nil || o.Fields == nil {
				return false, v.trap(t, "putfield on null or non-object")
			}
			o.Fields[in.FieldSlot()] = f.Regs[in.A]
		case ir.OpNewArray:
			n := f.Regs[in.A].I
			if n < 0 || n > 1<<28 {
				return false, v.trap(t, fmt.Sprintf("newarray with length %d", n))
			}
			f.Regs[in.Dst] = RefVal(NewArray(int(n)))
			// Charge a small per-element cost for zeroing.
			v.cycles += uint64(n) / 8
		case ir.OpArrayLoad:
			a := f.Regs[in.A].R
			if a == nil || a.Elems == nil {
				return false, v.trap(t, "aload on null or non-array")
			}
			i := f.Regs[in.B].I
			if i < 0 || i >= int64(len(a.Elems)) {
				return false, v.trap(t, fmt.Sprintf("aload index %d out of range [0,%d)", i, len(a.Elems)))
			}
			f.Regs[in.Dst] = a.Elems[i]
		case ir.OpArrayStore:
			a := f.Regs[in.Dst].R
			if a == nil || a.Elems == nil {
				return false, v.trap(t, "astore on null or non-array")
			}
			i := f.Regs[in.B].I
			if i < 0 || i >= int64(len(a.Elems)) {
				return false, v.trap(t, fmt.Sprintf("astore index %d out of range [0,%d)", i, len(a.Elems)))
			}
			a.Elems[i] = f.Regs[in.A]
		case ir.OpArrayLen:
			a := f.Regs[in.A].R
			if a == nil || a.Elems == nil {
				return false, v.trap(t, "alen on null or non-array")
			}
			f.Regs[in.Dst] = Value{I: int64(len(a.Elems))}

		case ir.OpCall:
			nf, err := v.pushCallRef(t, f, in, in.Method)
			if err != nil {
				return false, err
			}
			f = nf
			continue
		case ir.OpCallVirt:
			recv := f.Regs[in.Args[0]].R
			if recv == nil || recv.Class == nil {
				return false, v.trap(t, "callvirt on null or classless receiver")
			}
			m, ok := recv.Class.Lookup(in.Name)
			if !ok {
				return false, v.trap(t, fmt.Sprintf("no method %s on class %s", in.Name, recv.Class.Name))
			}
			nf, err := v.pushCallRef(t, f, in, m)
			if err != nil {
				return false, err
			}
			f = nf
			continue

		case ir.OpSpawn:
			m := in.Method
			if len(in.Args) != m.NumParams {
				return false, v.trap(t, fmt.Sprintf("spawn %s with %d args, wants %d", m.FullName(), len(in.Args), m.NumParams))
			}
			args := make([]Value, len(in.Args))
			for i, r := range in.Args {
				args[i] = f.Regs[r]
			}
			nt := v.newThreadRef(m, args)
			v.stats.ThreadsSpawned++
			v.refq = append(v.refq, nt)
			f.Regs[in.Dst] = RefVal(nt.handle)
		case ir.OpJoin:
			h := f.Regs[in.A].R
			if h == nil || h.Thread == nil {
				return false, v.trap(t, "join on non-thread")
			}
			if h.Thread.State != StateDone {
				// Block without advancing PC; the join re-executes when
				// the target finishes and wakes us.
				t.State = StateBlocked
				h.Thread.waiters = append(h.Thread.waiters, t)
				return true, nil
			}
			f.Regs[in.Dst] = h.Thread.Result

		case ir.OpIO:
			v.cycles += uint64(in.Imm)
		case ir.OpPrint:
			v.output = append(v.output, f.Regs[in.A].I)

		case ir.OpYield:
			v.stats.Yields++
			if v.obs != nil {
				v.obs.OnYield(t, f)
			}
			if v.cancelled() {
				return false, v.stopCancelled(v.cycles, v.stats.Instrs)
			}
			v.quantum--
			if v.quantum <= 0 && len(v.refq) > 1 {
				f.PC++
				return true, nil
			}

		case ir.OpProbe:
			v.execProbe(t, f, in.Probe)
		case ir.OpCheckedProbe:
			// No-Duplication guard (Figure 6): a check wrapping a single
			// instrumentation operation.
			if v.cancelled() {
				return false, v.stopCancelled(v.cycles, v.stats.Instrs)
			}
			v.cycles += uint64(v.cost.Check)
			v.stats.Checks++
			fired := v.trig.Poll(t.ID, v.cycles)
			if v.obs != nil {
				v.obs.OnCheck(t, f, in, fired)
			}
			if fired {
				v.stats.CheckFires++
				v.execProbe(t, f, in.Probe)
			}

		case ir.OpJump:
			if v.obs != nil {
				v.obs.OnTransfer(t, f, in, 0)
			}
			v.countBackedge(in, 0)
			v.enterBlock(f, in.Targets[0])
			continue
		case ir.OpBranch:
			i := 1
			if f.Regs[in.A].I != 0 {
				i = 0
			}
			if v.obs != nil {
				v.obs.OnTransfer(t, f, in, i)
			}
			v.countBackedge(in, i)
			v.enterBlock(f, in.Targets[i])
			continue

		case ir.OpCheck:
			if v.cancelled() {
				return false, v.stopCancelled(v.cycles, v.stats.Instrs)
			}
			v.stats.Checks++
			target := 1
			if v.trig.Poll(t.ID, v.cycles) {
				v.stats.CheckFires++
				v.stats.DupEntries++
				if v.cfg.IterBudget > 0 {
					f.IterBudget = v.cfg.IterBudget
				}
				target = 0
			}
			if v.obs != nil {
				v.obs.OnCheck(t, f, in, target == 0)
				v.obs.OnTransfer(t, f, in, target)
			}
			v.countBackedge(in, target)
			v.enterBlock(f, in.Targets[target])
			continue
		case ir.OpLoopCheck:
			v.stats.LoopChecks++
			f.IterBudget--
			target := 1
			if f.IterBudget > 0 {
				target = 0
			}
			if v.obs != nil {
				v.obs.OnTransfer(t, f, in, target)
			}
			v.countBackedge(in, target)
			v.enterBlock(f, in.Targets[target])
			continue

		case ir.OpReturn:
			var ret Value
			if in.A != ir.NoReg {
				ret = f.Regs[in.A]
			}
			retDst := f.RetDst
			if v.obs != nil {
				v.obs.OnExit(t, f)
			}
			t.Frames = t.Frames[:len(t.Frames)-1]
			if len(t.Frames) == 0 {
				t.State = StateDone
				t.Result = ret
				for _, w := range t.waiters {
					if w.State == StateBlocked {
						w.State = StateRunnable
						v.refq = append(v.refq, w)
					}
				}
				t.waiters = nil
				return true, nil
			}
			f = t.Top()
			if retDst != ir.NoReg {
				f.Regs[retDst] = ret
			}
			f.PC++ // step past the call
			v.touchCode(f.Block)
			continue

		default:
			return false, v.trap(t, fmt.Sprintf("unimplemented opcode %s", in.Op))
		}
		f.PC++
	}
}

func (v *VM) pushCallRef(t *Thread, f *Frame, in *ir.Instr, m *ir.Method) (*Frame, error) {
	if len(t.Frames) >= v.cfg.MaxStack {
		return nil, v.trap(t, fmt.Sprintf("stack overflow (depth %d)", len(t.Frames)))
	}
	if len(in.Args) != m.NumParams {
		return nil, v.trap(t, fmt.Sprintf("call %s with %d args, wants %d", m.FullName(), len(in.Args), m.NumParams))
	}
	args := make([]Value, len(in.Args))
	for i, r := range in.Args {
		args[i] = f.Regs[r]
	}
	nf := v.newFrameRef(m, args, in.Dst, f.Method, int(in.Imm))
	t.Frames = append(t.Frames, nf)
	v.stats.MethodEntries++
	if v.obs != nil {
		v.obs.OnEnter(t, nf)
	}
	v.touchCode(nf.Block)
	return nf, nil
}

func (v *VM) newThreadRef(m *ir.Method, args []Value) *Thread {
	t := &Thread{ID: len(v.threads), State: StateRunnable}
	t.handle = &Object{Thread: t}
	f := v.newFrameRef(m, args, ir.NoReg, nil, -1)
	t.Frames = append(t.Frames, f)
	v.threads = append(v.threads, t)
	v.stats.MethodEntries++
	if v.obs != nil {
		v.obs.OnEnter(t, f)
	}
	return t
}

// newFrameRef is the original allocating frame constructor: a fresh Frame,
// fresh register and scratch slices, arguments copied from a temporary
// slice. The fast path's pushFrame replaces all of this by reusing the
// frame the thread's stack keeps at the new depth.
func (v *VM) newFrameRef(m *ir.Method, args []Value, retDst ir.Reg, caller *ir.Method, site int) *Frame {
	f := &Frame{
		Method:       m,
		Regs:         make([]Value, m.NumRegs),
		Block:        m.Entry(),
		RetDst:       retDst,
		CallerMethod: caller,
		CallSite:     site,
		costScale:    1,
	}
	if v.cfg.CostScale != nil {
		if s := v.cfg.CostScale(m); s > 0 {
			f.costScale = s
		}
	}
	if m.ProbeRegs > 0 {
		f.Scratch = make([]int64, m.ProbeRegs)
	}
	copy(f.Regs, args)
	return f
}
