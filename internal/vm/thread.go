package vm

import (
	"fmt"

	"instrsample/internal/ir"
)

// ThreadState is a green thread's scheduling state.
type ThreadState uint8

const (
	// StateRunnable means the thread can be scheduled.
	StateRunnable ThreadState = iota
	// StateBlocked means the thread waits on a join.
	StateBlocked
	// StateDone means the thread has finished.
	StateDone
)

func (s ThreadState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Frame is one activation record: a method, its registers, the
// interpreter position, and the linkage back to the caller. The caller
// method and call-site ID are recorded at call time so the call-edge
// instrumentation can "examine the call stack" (§4.2) at probe cost
// rather than interpreter cost.
//
// The fast path recycles frames (DESIGN.md §7): nothing may keep a
// *Frame past the hook or handler it was handed to, and a register the
// program has not written yet may hold a stale value, which the program
// itself never reads.
type Frame struct {
	// Method is the executing method.
	Method *ir.Method
	// Regs are the frame's virtual registers. Read only registers the
	// program has written: a recycled frame zeroes just the registers
	// its method can read before writing them.
	Regs []Value
	// Scratch holds per-frame instrumentation state (e.g. the Ball–Larus
	// path register), sized by Method.ProbeRegs.
	Scratch []int64
	// Block and PC locate the next instruction.
	Block *ir.Block
	// PC indexes into Block.Instrs.
	PC int
	// RetDst is the caller register receiving this frame's return value.
	RetDst ir.Reg
	// CallerMethod and CallSite identify the call that created the frame
	// (nil/-1 for a thread's root frame).
	CallerMethod *ir.Method
	CallSite     int
	// IterBudget is the remaining duplicated-code iteration budget used
	// by OpLoopCheck (the §2 counted-backedge extension).
	IterBudget int64

	// costScale multiplies every instruction cost in this frame (models
	// the method's compilation level; see vm.Config.CostScale).
	costScale uint32
}

// Thread is a green thread. Threads are scheduled cooperatively at
// yieldpoints; the scheduler is strictly deterministic.
type Thread struct {
	// ID is the dense thread index (0 = main).
	ID int
	// Frames is the call stack; the last element is the active frame.
	Frames []*Frame
	// State is the scheduling state.
	State ThreadState
	// Result is the root method's return value once State == StateDone.
	Result Value

	waiters []*Thread
	handle  *Object
}

// Top returns the active frame, or nil if the stack is empty.
func (t *Thread) Top() *Frame {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// Depth returns the call-stack depth.
func (t *Thread) Depth() int { return len(t.Frames) }
