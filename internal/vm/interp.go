package vm

import (
	"fmt"

	"instrsample/internal/ir"
)

// runThread executes t until a scheduling event: quantum-expired
// yieldpoint, join block, or thread completion. It returns whether the
// scheduler should rotate.
//
// This is the fast path. It differs from the retained reference dispatch
// (ref.go) in several ways, none observable in the Result:
//
//   - Cycle costs come from the precomputed opcode-indexed table
//     (v.costTab) instead of re-running the CostModel.opCost switch per
//     instruction.
//   - The cycle-budget check is hoisted out of the per-instruction path
//     to thread entry, block transfers and frame pushes. A runaway
//     program still traps with the same error, a block-bounded number of
//     instructions later than the reference would; it never traps
//     earlier.
//   - The cycle and instruction counters accumulate in locals and are
//     written back to the VM only where something else can read them:
//     probe execution, i-cache touches, and every exit. The sample
//     triggers always poll the up-to-date count because Poll takes the
//     cycle counter as an argument.
//   - The frame position (f.PC) is tracked in a local and written back
//     only where something else can observe it: traps, probes, calls,
//     and scheduler returns.
//   - Wherever the thread enters a block or resumes a frame (thread
//     entry, calls, returns and block transfers) at a pc where a token
//     of the block's fused stream starts, at cost scale 1, the one
//     fused-tier entry, at the enter label, hands execution to runFused
//     (fuse.go), which may run many blocks and frames; all other code
//     runs here, one instruction per dispatch.
func (v *VM) runThread(t *Thread) (bool, error) {
	f := t.Top()
	if f.PC == 0 {
		v.touchCode(f.Block)
	}
	cycles := v.cycles
	icount := v.stats.Instrs
	if cycles > v.cfg.MaxCycles {
		return false, v.trapBudgetAt(t, cycles, icount)
	}
	pc := f.PC
enter:
	if fb := v.fuse[f.Block.GID]; fb != nil && f.costScale == 1 && fb.resume[pc] != noResume {
		var sched bool
		var err error
		cycles, icount, sched, err = v.runFused(t, f, fb, int(fb.resume[pc]), cycles, icount)
		if err != nil {
			return false, err
		}
		if sched {
			return true, nil
		}
		f = t.Top()
		pc = f.PC
	}
	regs := f.Regs
	instrs := f.Block.Instrs
	scale := f.costScale
	for {
		in := &instrs[pc]
		// The uint32 multiply intentionally wraps before widening,
		// matching the reference path's overflow behaviour.
		cycles += uint64(v.costTab[in.Op] * scale)
		icount++

		var tgt int // a terminator's taken target
		switch in.Op {
		case ir.OpNop:

		case ir.OpConst:
			regs[in.Dst] = Value{I: in.Imm}
		case ir.OpMove:
			regs[in.Dst] = regs[in.A]

		case ir.OpAdd:
			regs[in.Dst] = Value{I: regs[in.A].I + regs[in.B].I}
		case ir.OpSub:
			regs[in.Dst] = Value{I: regs[in.A].I - regs[in.B].I}
		case ir.OpMul:
			regs[in.Dst] = Value{I: regs[in.A].I * regs[in.B].I}
		case ir.OpDiv:
			d := regs[in.B].I
			if d == 0 {
				return false, v.trapAt(t, f, pc, cycles, icount, "division by zero")
			}
			regs[in.Dst] = Value{I: regs[in.A].I / d}
		case ir.OpRem:
			d := regs[in.B].I
			if d == 0 {
				return false, v.trapAt(t, f, pc, cycles, icount, "remainder by zero")
			}
			regs[in.Dst] = Value{I: regs[in.A].I % d}
		case ir.OpAnd:
			regs[in.Dst] = Value{I: regs[in.A].I & regs[in.B].I}
		case ir.OpOr:
			regs[in.Dst] = Value{I: regs[in.A].I | regs[in.B].I}
		case ir.OpXor:
			regs[in.Dst] = Value{I: regs[in.A].I ^ regs[in.B].I}
		case ir.OpShl:
			regs[in.Dst] = Value{I: regs[in.A].I << (uint64(regs[in.B].I) & 63)}
		case ir.OpShr:
			regs[in.Dst] = Value{I: regs[in.A].I >> (uint64(regs[in.B].I) & 63)}
		case ir.OpNeg:
			regs[in.Dst] = Value{I: -regs[in.A].I}
		case ir.OpNot:
			regs[in.Dst] = Value{I: ^regs[in.A].I}

		case ir.OpCmpEQ:
			regs[in.Dst] = boolVal(cmpValues(regs[in.A], regs[in.B]) == 0)
		case ir.OpCmpNE:
			regs[in.Dst] = boolVal(cmpValues(regs[in.A], regs[in.B]) != 0)
		case ir.OpCmpLT:
			regs[in.Dst] = boolVal(regs[in.A].I < regs[in.B].I)
		case ir.OpCmpLE:
			regs[in.Dst] = boolVal(regs[in.A].I <= regs[in.B].I)
		case ir.OpCmpGT:
			regs[in.Dst] = boolVal(regs[in.A].I > regs[in.B].I)
		case ir.OpCmpGE:
			regs[in.Dst] = boolVal(regs[in.A].I >= regs[in.B].I)

		case ir.OpClassOf:
			o := regs[in.A].R
			if o == nil {
				return false, v.trapAt(t, f, pc, cycles, icount, "classof on null")
			}
			if o.Class != nil {
				regs[in.Dst] = Value{I: int64(o.Class.ID)}
			} else {
				regs[in.Dst] = Value{I: -1}
			}
		case ir.OpNew:
			regs[in.Dst] = RefVal(NewInstance(in.Class))
		case ir.OpGetField:
			o := regs[in.A].R
			if o == nil || o.Fields == nil {
				return false, v.trapAt(t, f, pc, cycles, icount, "getfield on null or non-object")
			}
			regs[in.Dst] = o.Fields[in.FieldSlot()]
		case ir.OpPutField:
			o := regs[in.B].R
			if o == nil || o.Fields == nil {
				return false, v.trapAt(t, f, pc, cycles, icount, "putfield on null or non-object")
			}
			o.Fields[in.FieldSlot()] = regs[in.A]
		case ir.OpNewArray:
			n := regs[in.A].I
			if n < 0 || n > 1<<28 {
				return false, v.trapAt(t, f, pc, cycles, icount, fmt.Sprintf("newarray with length %d", n))
			}
			regs[in.Dst] = RefVal(NewArray(int(n)))
			// Charge a small per-element cost for zeroing.
			cycles += uint64(n) / 8
		case ir.OpArrayLoad:
			a := regs[in.A].R
			if a == nil || a.Elems == nil {
				return false, v.trapAt(t, f, pc, cycles, icount, "aload on null or non-array")
			}
			i := regs[in.B].I
			if i < 0 || i >= int64(len(a.Elems)) {
				return false, v.trapAt(t, f, pc, cycles, icount, fmt.Sprintf("aload index %d out of range [0,%d)", i, len(a.Elems)))
			}
			regs[in.Dst] = a.Elems[i]
		case ir.OpArrayStore:
			a := regs[in.Dst].R
			if a == nil || a.Elems == nil {
				return false, v.trapAt(t, f, pc, cycles, icount, "astore on null or non-array")
			}
			i := regs[in.B].I
			if i < 0 || i >= int64(len(a.Elems)) {
				return false, v.trapAt(t, f, pc, cycles, icount, fmt.Sprintf("astore index %d out of range [0,%d)", i, len(a.Elems)))
			}
			a.Elems[i] = regs[in.A]
		case ir.OpArrayLen:
			a := regs[in.A].R
			if a == nil || a.Elems == nil {
				return false, v.trapAt(t, f, pc, cycles, icount, "alen on null or non-array")
			}
			regs[in.Dst] = Value{I: int64(len(a.Elems))}

		case ir.OpCall, ir.OpCallVirt:
			f.PC = pc
			var err error
			if f, cycles, err = v.call(t, f, in, cycles, icount); err != nil {
				return false, err
			}
			pc = 0
			goto enter

		case ir.OpSpawn:
			m := in.Method
			if len(in.Args) != m.NumParams {
				return false, v.trapAt(t, f, pc, cycles, icount, fmt.Sprintf("spawn %s with %d args, wants %d", m.FullName(), len(in.Args), m.NumParams))
			}
			if v.obs != nil {
				v.cycles = cycles // newThread fires OnEnter; keep Now exact
			}
			nt := v.newThread(m)
			nr := nt.Frames[0].Regs
			for i, r := range in.Args {
				nr[i] = regs[r]
			}
			v.stats.ThreadsSpawned++
			v.runq.push(nt)
			regs[in.Dst] = RefVal(nt.handle)
		case ir.OpJoin:
			h := regs[in.A].R
			if h == nil || h.Thread == nil {
				return false, v.trapAt(t, f, pc, cycles, icount, "join on non-thread")
			}
			if h.Thread.State != StateDone {
				// Block without advancing PC; the join re-executes when
				// the target finishes and wakes us.
				f.PC = pc
				v.cycles, v.stats.Instrs = cycles, icount
				t.State = StateBlocked
				h.Thread.waiters = append(h.Thread.waiters, t)
				return true, nil
			}
			regs[in.Dst] = h.Thread.Result

		case ir.OpIO:
			cycles += uint64(in.Imm)
		case ir.OpPrint:
			v.output = append(v.output, regs[in.A].I)

		case ir.OpYield:
			v.stats.Yields++
			if v.obs != nil {
				v.observeYield(t, f, cycles)
			}
			if v.cancelled() {
				f.PC = pc
				return false, v.stopCancelled(cycles, icount)
			}
			v.quantum--
			if v.quantum <= 0 && v.runq.len() > 1 {
				f.PC = pc + 1
				v.cycles, v.stats.Instrs = cycles, icount
				return true, nil
			}

		case ir.OpProbe:
			f.PC = pc
			v.cycles = cycles
			v.execProbe(t, f, in.Probe)
			cycles = v.cycles
		case ir.OpCheckedProbe:
			// No-Duplication guard (Figure 6): a check wrapping a single
			// instrumentation operation.
			if v.cancelled() {
				f.PC = pc
				return false, v.stopCancelled(cycles, icount)
			}
			cycles += uint64(v.cost.Check)
			v.stats.Checks++
			fired := v.trig.Poll(t.ID, cycles)
			if v.obs != nil {
				v.observeCheck(t, f, in, fired, cycles)
			}
			if fired {
				v.stats.CheckFires++
				f.PC = pc
				v.cycles = cycles
				v.execProbe(t, f, in.Probe)
				cycles = v.cycles
			}

		case ir.OpJump:
			goto transfer
		case ir.OpBranch:
			tgt = 1
			if regs[in.A].I != 0 {
				tgt = 0
			}
			goto transfer
		case ir.OpCheck:
			if v.cancelled() {
				f.PC = pc
				return false, v.stopCancelled(cycles, icount)
			}
			v.stats.Checks++
			tgt = 1
			if v.trig.Poll(t.ID, cycles) {
				v.stats.CheckFires++
				v.stats.DupEntries++
				if v.cfg.IterBudget > 0 {
					f.IterBudget = v.cfg.IterBudget
				}
				tgt = 0
			}
			if v.obs != nil {
				v.observeCheck(t, f, in, tgt == 0, cycles)
			}
			goto transfer
		case ir.OpLoopCheck:
			v.stats.LoopChecks++
			f.IterBudget--
			tgt = 1
			if f.IterBudget > 0 {
				tgt = 0
			}
			goto transfer

		case ir.OpReturn:
			if f, cycles = v.ret(t, f, in, cycles, icount); f == nil {
				return true, nil
			}
			pc = f.PC + 1 // step past the call
			goto enter

		default:
			return false, v.trapAt(t, f, pc, cycles, icount, fmt.Sprintf("unimplemented opcode %s", in.Op))
		}
		pc++
		continue

	transfer:
		var err error
		if cycles, err = v.transfer(t, f, in, tgt, cycles, icount); err != nil {
			return false, err
		}
		pc = 0
		goto enter
	}
}

// trapAt writes the lazily tracked pc and counters back before building
// the trap, so the error reports the faulting instruction and a
// subsequent Stats call sees the final counts.
func (v *VM) trapAt(t *Thread, f *Frame, pc int, cycles, icount uint64, reason string) error {
	f.PC = pc
	v.cycles, v.stats.Instrs = cycles, icount
	return v.trap(t, reason)
}

// trapBudgetAt reports cycle-budget exhaustion at the current frame
// position, flushing the tracked counters first.
func (v *VM) trapBudgetAt(t *Thread, cycles, icount uint64) error {
	v.cycles, v.stats.Instrs = cycles, icount
	return v.trap(t, fmt.Sprintf("cycle budget exhausted (%d)", v.cfg.MaxCycles))
}

// call performs the call in at f.PC, which the caller has charged,
// for both tiers: it resolves a virtual call (with the reference's
// null-receiver and missing-method traps), pushes a frame for the callee
// with the argument registers copied straight from f into the (pooled)
// callee registers, delivers OnEnter, touches the callee's entry block
// and checks the cycle budget. It returns the new frame and the cycle
// counter, which the i-cache touch may have raised.
func (v *VM) call(t *Thread, f *Frame, in *ir.Instr, cycles, icount uint64) (*Frame, uint64, error) {
	m := in.Method
	if in.Op == ir.OpCallVirt {
		recv := f.Regs[in.Args[0]].R
		if recv == nil || recv.Class == nil {
			return nil, cycles, v.trapAt(t, f, f.PC, cycles, icount, "callvirt on null or classless receiver")
		}
		var ok bool
		if m, ok = recv.Class.Lookup(in.Name); !ok {
			return nil, cycles, v.trapAt(t, f, f.PC, cycles, icount, fmt.Sprintf("no method %s on class %s", in.Name, recv.Class.Name))
		}
	}
	v.cycles, v.stats.Instrs = cycles, icount
	if len(t.Frames) >= v.cfg.MaxStack {
		return nil, cycles, v.trap(t, fmt.Sprintf("stack overflow (depth %d)", len(t.Frames)))
	}
	if len(in.Args) != m.NumParams {
		return nil, cycles, v.trap(t, fmt.Sprintf("call %s with %d args, wants %d", m.FullName(), len(in.Args), m.NumParams))
	}
	nf := v.acquireFrame(m, in.Dst, f.Method, int(in.Imm))
	for i, r := range in.Args {
		nf.Regs[i] = f.Regs[r]
	}
	t.Frames = append(t.Frames, nf)
	v.stats.MethodEntries++
	if v.obs != nil {
		v.observeEnter(t, nf)
	}
	v.touchCode(nf.Block)
	if v.cycles > v.cfg.MaxCycles {
		return nil, v.cycles, v.trapBudgetAt(t, v.cycles, icount)
	}
	return nf, v.cycles, nil
}

// ret performs the return in ending frame f, the top of t, which the
// caller has charged, for both tiers: it delivers OnExit, pops and
// recycles f and writes the return value into the caller's RetDst
// register. When the stack empties it finishes the thread, wakes its
// joiners, flushes the counters and returns a nil frame. Otherwise it
// touches the caller's block and returns the caller, whose PC is still
// the call's, and the cycle counter.
func (v *VM) ret(t *Thread, f *Frame, in *ir.Instr, cycles, icount uint64) (*Frame, uint64) {
	var r Value
	if in.A != ir.NoReg {
		r = f.Regs[in.A]
	}
	retDst := f.RetDst
	if v.obs != nil {
		v.observeExit(t, f, cycles)
	}
	t.Frames = t.Frames[:len(t.Frames)-1]
	v.releaseFrame(f)
	if len(t.Frames) == 0 {
		t.State = StateDone
		t.Result = r
		v.cycles, v.stats.Instrs = cycles, icount
		for _, w := range t.waiters {
			if w.State == StateBlocked {
				w.State = StateRunnable
				v.runq.push(w)
			}
		}
		t.waiters = nil
		return nil, cycles
	}
	f = t.Top()
	if retDst != ir.NoReg {
		f.Regs[retDst] = r
	}
	if v.ic != nil {
		v.cycles = cycles
		v.touchCode(f.Block)
		cycles = v.cycles
	}
	return f, cycles
}

// transfer performs the transfer of f's terminator in to its target tgt
// for both tiers: it delivers OnTransfer (the hook sees the source
// block), counts a backedge, enters and touches the target block and
// checks the cycle budget. It returns the cycle counter, which the
// i-cache touch may have raised.
func (v *VM) transfer(t *Thread, f *Frame, in *ir.Instr, tgt int, cycles, icount uint64) (uint64, error) {
	if v.obs != nil {
		v.observeTransfer(t, f, in, tgt, cycles)
	}
	v.countBackedge(in, tgt)
	b := in.Targets[tgt]
	f.Block, f.PC = b, 0
	if v.ic != nil {
		v.cycles = cycles
		v.touchCode(b)
		cycles = v.cycles
	}
	if cycles > v.cfg.MaxCycles {
		return cycles, v.trapBudgetAt(t, cycles, icount)
	}
	return cycles, nil
}

func (v *VM) countBackedge(in *ir.Instr, target int) {
	if in.BackedgeMask&(1<<uint(target)) != 0 {
		v.stats.Backedges++
	}
}

func (v *VM) execProbe(t *Thread, f *Frame, p *ir.Probe) {
	if v.obs != nil {
		v.observeProbe(t, f, p)
	}
	v.cycles += uint64(p.Cost)
	v.stats.Probes++
	switch p.Kind {
	case ir.ProbePathInit:
		f.Scratch[p.Reg] = 0
		return
	case ir.ProbePathInc:
		f.Scratch[p.Reg] += p.Imm
		return
	}
	// The VM's one event, refilled per probe: a local would escape to
	// the heap through the interface call.
	ev := &v.probeEv
	*ev = ProbeEvent{
		Probe:        p,
		Method:       f.Method,
		CallerMethod: f.CallerMethod,
		CallSite:     f.CallSite,
		ThreadID:     t.ID,
		Thread:       t,
	}
	switch p.Kind {
	case ir.ProbeValue:
		ev.Value = f.Regs[p.Reg].I
	case ir.ProbePathRecord:
		ev.Value = f.Scratch[p.Reg]
	case ir.ProbeReceiver:
		switch o := f.Regs[p.Reg].R; {
		case o == nil:
			ev.Value = -2
		case o.Class != nil:
			ev.Value = int64(o.Class.ID)
		default:
			ev.Value = -1
		}
	}
	if p.Owner >= 0 && p.Owner < len(v.cfg.Handlers) && v.cfg.Handlers[p.Owner] != nil {
		v.cfg.Handlers[p.Owner].HandleProbe(ev)
	}
}

func boolVal(b bool) Value {
	if b {
		return Value{I: 1}
	}
	return Value{}
}

// cmpValues compares two values for equality semantics: references compare
// by identity, integers by value. Mixed comparisons are unequal unless
// both are the zero value (null == 0).
func cmpValues(a, b Value) int {
	if a.R != nil || b.R != nil {
		if a.R == b.R {
			return 0
		}
		return 1
	}
	switch {
	case a.I == b.I:
		return 0
	case a.I < b.I:
		return -1
	default:
		return 1
	}
}
