package instr

import (
	"fmt"

	"instrsample/internal/ir"
	"instrsample/internal/profile"
	"instrsample/internal/vm"
)

// FieldAccess is the paper's second example instrumentation (§4.2): every
// get_field/put_field increments a per-field counter. The profile drives
// data-layout optimizations. The probe models two loads, an increment and
// a store (§4.3 notes it costs about as much as a counter-based check,
// which is why No-Duplication barely helps it).
type FieldAccess struct {
	// Cost overrides the per-probe cycle cost (default 6).
	Cost uint32
}

// DefaultFieldAccessCost is the probe cost: two loads, an increment and a
// store on the counter array.
const DefaultFieldAccessCost = 6

// Name returns "field-access".
func (*FieldAccess) Name() string { return "field-access" }

// Instrument inserts a ProbeEvent immediately before every field access.
// A block without field accesses keeps its slice; any other block is
// rebuilt in one allocation.
func (f *FieldAccess) Instrument(p *ir.Program, m *ir.Method, owner int) {
	cost := f.Cost
	if cost == 0 {
		cost = DefaultFieldAccessCost
	}
	for _, b := range m.Blocks {
		k := 0
		for i := range b.Instrs {
			if isFieldAccess(b.Instrs[i].Op) {
				k++
			}
		}
		if k == 0 {
			continue
		}
		out := make([]ir.Instr, 0, len(b.Instrs)+k)
		for _, in := range b.Instrs {
			if isFieldAccess(in.Op) {
				out = append(out, ir.Instr{
					Op: ir.OpProbe,
					Probe: &ir.Probe{
						Owner: owner,
						Kind:  ir.ProbeEvent,
						ID:    p.FieldID(in.Class, in.FieldSlot()),
						Cost:  cost,
					},
				})
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}

func isFieldAccess(op ir.Op) bool { return op == ir.OpGetField || op == ir.OpPutField }

// NewRuntime returns a field-access profile accumulator.
func (f *FieldAccess) NewRuntime(p *ir.Program) Runtime {
	rt := &fieldAccessRuntime{prof: profile.New("field-access"), prog: p}
	rt.prof.Labeler = rt.label
	return rt
}

type fieldAccessRuntime struct {
	prof *profile.Profile
	prog *ir.Program
}

func (rt *fieldAccessRuntime) HandleProbe(ev *vm.ProbeEvent) {
	rt.prof.Inc(uint64(ev.Probe.ID))
}

func (rt *fieldAccessRuntime) Profile() *profile.Profile { return rt.prof }

func (rt *fieldAccessRuntime) label(key uint64) string {
	id := int(key)
	for _, c := range rt.prog.Classes {
		base := rt.prog.FieldID(c, 0)
		if id >= base && id < base+c.NumFields() {
			return c.Name + "." + c.FieldName(id-base)
		}
	}
	return fmt.Sprintf("field#%d", id)
}
