package vm

import (
	"fmt"

	"instrsample/internal/ir"
)

// The fast path's frame and probe operations, which runThread and
// runFusedBlocks (fuse.go) call outside their loops.

// trapBudgetAt reports cycle-budget exhaustion at the current frame
// position, flushing the tracked counters first.
func (v *VM) trapBudgetAt(t *Thread, cycles, icount uint64) error {
	v.cycles, v.stats.Instrs = cycles, icount
	return v.trap(t, fmt.Sprintf("cycle budget exhausted (%d)", v.cfg.MaxCycles))
}

// call performs the call in at f.PC, which runFusedBlocks has charged:
// it flushes the counters, resolves a virtual call (with the
// reference's null-receiver and missing-method traps), pushes a frame
// for the callee with the argument registers copied straight from f
// into the (pooled) callee registers, delivers OnEnter, touches the
// callee's entry block and checks the cycle budget. It returns the new
// frame and the cycle counter, which the i-cache touch may have raised.
func (v *VM) call(t *Thread, f *Frame, in *ir.Instr, cycles, icount uint64) (*Frame, uint64, error) {
	v.cycles, v.stats.Instrs = cycles, icount
	m := in.Method
	if in.Op == ir.OpCallVirt {
		recv := f.Regs[in.Args[0]].R
		if recv == nil || recv.Class == nil {
			return nil, cycles, v.trap(t, "callvirt on null or classless receiver")
		}
		var ok bool
		if m, ok = recv.Class.Lookup(in.Name); !ok {
			return nil, cycles, v.trap(t, fmt.Sprintf("no method %s on class %s", in.Name, recv.Class.Name))
		}
	}
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

// ret performs the return in ending frame f, the top of t, which
// runFusedBlocks has charged: it delivers OnExit, pops and recycles f
// and writes the return value into the caller's RetDst register. When the stack empties it finishes the thread, wakes its
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

func boolVal(b bool) Value { return Value{I: b2i(b)} }

// b2i is a comparison's integer result: 1 for true, 0 for false.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
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
