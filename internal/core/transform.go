package core

import (
	"fmt"

	"instrsample/internal/ir"
)

// Transform applies the sampling framework to one instrumented method.
// The method must already carry its instrumentation probes (package
// instr) and its yieldpoints (package compile); the transform relocates
// both per the selected variation. Transform is idempotent-hostile: it
// must run at most once per method.
func Transform(m *ir.Method, opts Options) (*MethodStats, error) {
	if m.Transformed != "" {
		return nil, fmt.Errorf("core: method %s already transformed (%s)", m.FullName(), m.Transformed)
	}
	stats := &MethodStats{BlocksBefore: len(m.Blocks)}
	var err error
	switch opts.Variation {
	case FullDuplication:
		err = fullDuplication(m, opts, stats)
	case PartialDuplication:
		err = partialDuplication(m, opts, stats, nil)
	case NoDuplication:
		if opts.YieldpointOpt {
			return nil, fmt.Errorf("core: yieldpoint optimization requires duplicated code (variation %s)", opts.Variation)
		}
		noDuplication(m, stats)
	case Hybrid:
		err = hybrid(m, opts, stats)
	default:
		return nil, fmt.Errorf("core: unknown variation %d", int(opts.Variation))
	}
	if err != nil {
		return nil, err
	}
	m.Transformed = opts.Variation.String()
	m.Renumber()
	m.RecomputePreds()
	stats.BlocksAfter = len(m.Blocks)
	return stats, nil
}

// TransformSelected applies the framework to the methods selected by keep
// (nil keeps all). Unselected methods are left untouched — no duplication
// and no checks, so they run at exactly baseline cost. This is the
// selective mode §3 anticipates for adaptive systems: "an adaptive system
// will likely instrument only the hot methods"; combined with selective
// instrumentation (instr.InstrumentMethods) the space and time cost of
// the framework is confined to the hot set.
func TransformSelected(p *ir.Program, opts Options, keep func(*ir.Method) bool) (*MethodStats, error) {
	total := &MethodStats{}
	for _, m := range p.Methods() {
		if keep != nil && !keep(m) {
			continue
		}
		s, err := Transform(m, opts)
		if err != nil {
			return nil, err
		}
		total.Add(*s)
	}
	return total, nil
}

// HasProbes reports whether the method carries any instrumentation — the
// usual keep predicate for TransformSelected.
func HasProbes(m *ir.Method) bool {
	for _, b := range m.Blocks {
		if b.HasProbe() {
			return true
		}
	}
	return false
}

// fullDuplication implements the §2 algorithm (Figure 2): duplicate every
// block, strip probes from the originals (now the checking code), redirect
// every duplicated backedge back to the checking code, and insert checks
// on the method entry and on every checking-code backedge.
func fullDuplication(m *ir.Method, opts Options, stats *MethodStats) error {
	backedges := m.Backedges()
	orig := append([]*ir.Block(nil), m.Blocks...)
	entry := m.Entry()

	twins := ir.CloneBlocks(m, orig, ir.KindDuplicated)
	stats.BlocksDuplicated = len(twins)

	stripChecking(orig, opts, stats)

	// Backedge checks: split every checking-code backedge with a check
	// that fires into the duplicated copy of the loop header. The checks
	// are created before the duplicated backedges are redirected, because
	// those backedges return to the *check*: §4.4's perfect profile
	// (interval 1) requires all execution to occur in duplicated code,
	// which holds exactly when every duplicated backedge re-polls the
	// trigger on its way back to the checking code.
	checks := make(map[ir.Edge]*ir.Block, len(backedges))
	for _, e := range backedges {
		checks[e] = insertBackedgeCheck(m, e, twins[e.To], stats)
	}
	redirectDupBackedges(m, backedges, twins, checks, opts, stats)

	// Entry check: a fresh block that becomes the method entry.
	insertEntryCheck(m, entry, twins[entry], stats)
	return nil
}

// redirectDupBackedges rewires every backedge of the duplicated code so it
// returns to the checking code: to the check block guarding the
// corresponding checking-code backedge when one exists (so the trigger is
// re-polled per loop iteration), else to the checking-code header.
// Under the counted-iterations extension the backedge instead reaches an
// OpLoopCheck that keeps execution in the duplicated code while the
// frame's budget lasts.
func redirectDupBackedges(m *ir.Method, backedges []ir.Edge, twins map[*ir.Block]*ir.Block, checks map[ir.Edge]*ir.Block, opts Options, stats *MethodStats) {
	for _, e := range backedges {
		ds, ok := twins[e.From]
		if !ok {
			continue // source not duplicated (Partial-Duplication)
		}
		exit := e.To // checking-code loop header
		if c, ok := checks[e]; ok && c != nil {
			exit = c
		}
		t := ds.Terminator()
		if opts.CountedIterations {
			if dh, ok := twins[e.To]; ok {
				mask := uint8(0b11)
				if exit != e.To {
					mask = 0b01 // the check block accounts for the exit edge
				}
				lc := m.NewBlock("")
				lc.Kind = ir.KindDuplicated
				lc.Append(ir.Instr{
					Op:           ir.OpLoopCheck,
					Targets:      []*ir.Block{dh, exit},
					BackedgeMask: mask,
				})
				t.Targets[e.Index] = lc
				t.BackedgeMask &^= 1 << uint(e.Index)
				continue
			}
		}
		t.Targets[e.Index] = exit
		if exit != e.To {
			// The check block carries the backedge accounting itself;
			// avoid double-counting on the edge into it.
			t.BackedgeMask &^= 1 << uint(e.Index)
		}
		// Otherwise the mask bit survives the clone: the dup-to-checking
		// edge still closes the loop, so it still counts as a backedge.
	}
}

// stripChecking removes all probes — and, under the yieldpoint
// optimization, all yieldpoints — from the checking code.
func stripChecking(checking []*ir.Block, opts Options, stats *MethodStats) {
	for _, b := range checking {
		stats.ProbesStripped += b.StripProbes()
		if opts.YieldpointOpt {
			stats.YieldsStripped += b.StripYields()
		}
	}
}

// insertEntryCheck makes a new check block the method entry: on fire it
// enters the duplicated entry, otherwise the checking entry.
func insertEntryCheck(m *ir.Method, entry, dupEntry *ir.Block, stats *MethodStats) {
	c := m.NewBlock("entrycheck")
	c.Kind = ir.KindCheckBlock
	c.Append(ir.Instr{Op: ir.OpCheck, Targets: []*ir.Block{dupEntry, entry}})
	// Move the check block to position 0: Blocks[0] is the method entry.
	last := len(m.Blocks) - 1
	copy(m.Blocks[1:], m.Blocks[:last])
	m.Blocks[0] = c
	stats.ChecksInserted++
}

// insertBackedgeCheck splits the checking-code backedge e with a check
// block: fire enters dupHeader, else the original header. Both outcomes
// traverse the loop backedge, so both carry the backedge mark. It returns
// the check block so duplicated backedges can be pointed at it.
func insertBackedgeCheck(m *ir.Method, e ir.Edge, dupHeader *ir.Block, stats *MethodStats) *ir.Block {
	c := m.NewBlock("")
	c.Kind = ir.KindCheckBlock
	c.Append(ir.Instr{
		Op:           ir.OpCheck,
		Targets:      []*ir.Block{dupHeader, e.To},
		BackedgeMask: 0b11,
	})
	t := e.From.Terminator()
	t.Targets[e.Index] = c
	t.BackedgeMask &^= 1 << uint(e.Index)
	stats.ChecksInserted++
	return c
}

// noDuplication implements §3.2 (Figure 6): nothing is duplicated; every
// probe is guarded by its own check.
func noDuplication(m *ir.Method, stats *MethodStats) {
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpProbe {
				b.Instrs[i].Op = ir.OpCheckedProbe
				stats.GuardedProbes++
			}
		}
	}
}
