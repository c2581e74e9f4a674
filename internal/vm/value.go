// Package vm implements a deterministic interpreter for the IR of package
// ir, playing the role of the Jalapeño execution engine in the paper's
// experiments. It provides:
//
//   - execution of whole programs with classes, virtual dispatch and
//     green threads scheduled at yieldpoints (as Jalapeño schedules
//     threads, §4.5);
//   - a simulated cycle cost model whose per-operation costs mirror the
//     instruction sequences the paper describes (a counter-based check is
//     a load, compare, branch, decrement and store, §4.2), so that
//     "overhead" can be measured deterministically as a cycle ratio;
//   - an optional direct-mapped instruction-cache model that charges the
//     indirect costs of code duplication (the growth in code size and the
//     jumps between checking and duplicated code, §3 and §4.4);
//   - the runtime half of the sampling framework: OpCheck polls a
//     trigger.Trigger, probes dispatch to registered instrumentation
//     runtimes.
//
// Interpreter instances are fully isolated: the package keeps no mutable
// package-level state, and a VM touches only the program, trigger,
// handlers and i-cache it was configured with. Distinct VMs may therefore
// run concurrently on separate goroutines (package experiment's engine
// relies on this), provided they do not share a Trigger, ProbeHandler or
// ICache instance; a single VM is not safe for concurrent use.
//
// See DESIGN.md §2 (cost-model substitution argument) and §3 (system
// inventory).
package vm

import (
	"fmt"

	"instrsample/internal/ir"
)

// Value is a single register or field slot: either an integer or a
// reference. The zero Value is the integer 0 / null reference.
//
// The fused loop writes a register, field or element through setI (an
// integer) or set (a copy), never by assigning a whole Value, so that
// storing an integer stores no pointer and pays no GC write barrier
// (DESIGN.md §7.5); only a new reference (RefVal) is assigned whole.
type Value struct {
	I int64
	R *Object
}

// setI writes the integer x into *r and clears its reference only when
// one is there.
func setI(r *Value, x int64) {
	r.I = x
	if r.R != nil {
		r.R = nil
	}
}

// set copies x into *r and writes the reference only when it changes.
func set(r *Value, x Value) {
	r.I = x.I
	if r.R != x.R {
		r.R = x.R
	}
}

// store writes x to *p only when *p differs: the frame and probe-event
// form of set, for the call path's pointer fields (DESIGN.md §7.5).
func store[T comparable](p *T, x T) {
	if *p != x {
		*p = x
	}
}

// RefVal wraps a reference.
func RefVal(o *Object) Value { return Value{R: o} }

func (v Value) String() string {
	if v.R != nil {
		return v.R.String()
	}
	return fmt.Sprintf("%d", v.I)
}

// Object is a heap entity: a class instance, an array, or a thread
// handle. Exactly one of the three roles is populated.
type Object struct {
	// Class is the dynamic class of an instance (nil for arrays and
	// thread handles).
	Class *ir.Class
	// Fields are the instance's field slots (class instances only).
	Fields []Value
	// Elems are the array elements (arrays only; non-nil even for empty
	// arrays).
	Elems []Value
	// Thread is the handle's thread (thread handles only).
	Thread *Thread

	isArray bool
}

func (o *Object) String() string {
	switch {
	case o == nil:
		return "null"
	case o.Class != nil:
		return fmt.Sprintf("%s@%p", o.Class.Name, o)
	case o.isArray:
		return fmt.Sprintf("array[%d]@%p", len(o.Elems), o)
	case o.Thread != nil:
		return fmt.Sprintf("thread#%d", o.Thread.ID)
	default:
		return fmt.Sprintf("object@%p", o)
	}
}

// NewInstance allocates an instance of c with zeroed fields.
func NewInstance(c *ir.Class) *Object {
	return &Object{Class: c, Fields: make([]Value, c.NumFields())}
}

// NewArray allocates an array of n zero values.
func NewArray(n int) *Object {
	return &Object{Elems: make([]Value, n), isArray: true}
}
