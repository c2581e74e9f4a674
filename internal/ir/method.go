package ir

import (
	"fmt"
	"sort"
)

// Method is a compiled method: a CFG over basic blocks plus frame
// metadata. Free functions have Class == nil; virtual methods receive the
// receiver in register 0.
type Method struct {
	// Name is the method's name; unique within its class (or among free
	// functions).
	Name string
	// Class is the declaring class, or nil for a free function.
	Class *Class
	// NumParams is the number of parameters; arguments arrive in
	// registers 0..NumParams-1 (receiver in register 0 for virtual
	// methods, counted in NumParams).
	NumParams int
	// NumRegs is the frame's register count (>= NumParams).
	NumRegs int
	// Blocks holds every block of the method; Blocks[0] is the entry.
	Blocks []*Block
	// ProbeRegs is the number of per-frame instrumentation scratch slots
	// (e.g. the Ball–Larus path register). Set by instrumenters.
	ProbeRegs int

	// ID is the dense program-wide method index (set by Program.Seal).
	ID int
	// CodeSize is the encoded size in bytes, set by the layout pass.
	CodeSize int
	// Transformed records which framework variation, if any, has been
	// applied ("" when untransformed).
	Transformed string
}

// FullName returns Class.Name + "." + Name, or just Name for a free
// function.
func (m *Method) FullName() string {
	if m.Class != nil {
		return m.Class.Name + "." + m.Name
	}
	return m.Name
}

// Entry returns the method's entry block.
func (m *Method) Entry() *Block {
	if len(m.Blocks) == 0 {
		return nil
	}
	return m.Blocks[0]
}

// NewBlock appends a fresh empty block to the method and returns it.
func (m *Method) NewBlock(label string) *Block {
	b := &Block{ID: len(m.Blocks), Label: label, rpoIndex: -1}
	m.Blocks = append(m.Blocks, b)
	return b
}

// Renumber reassigns dense block IDs in Blocks order.
func (m *Method) Renumber() {
	for i, b := range m.Blocks {
		b.ID = i
	}
}

// RecomputePreds rebuilds every block's predecessor list from the
// terminators. Call after any CFG edit.
func (m *Method) RecomputePreds() {
	for _, b := range m.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range m.Blocks {
		for _, s := range b.Succs() {
			if s != nil {
				s.Preds = append(s.Preds, b)
			}
		}
	}
}

// RemoveUnreachable drops blocks not reachable from the entry, renumbers,
// and recomputes predecessors. Returns the number of blocks removed.
func (m *Method) RemoveUnreachable() int {
	if len(m.Blocks) == 0 {
		return 0
	}
	seen := make(map[*Block]bool, len(m.Blocks))
	stack := []*Block{m.Entry()}
	seen[m.Entry()] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if s != nil && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	kept := m.Blocks[:0]
	removed := 0
	for _, b := range m.Blocks {
		if seen[b] {
			kept = append(kept, b)
		} else {
			removed++
		}
	}
	m.Blocks = kept
	m.Renumber()
	m.RecomputePreds()
	return removed
}

// NumInstrs returns the total instruction count across all blocks.
func (m *Method) NumInstrs() int {
	n := 0
	for _, b := range m.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Program is a complete unit of execution: classes, free functions and a
// designated main method.
type Program struct {
	// Name labels the program (benchmark name etc.).
	Name string
	// Classes lists every class.
	Classes []*Class
	// Funcs lists every free function.
	Funcs []*Method
	// Main is the entry method (must take no parameters).
	Main *Method

	sealed bool
	// methods caches the flattened method list built by Seal.
	methods []*Method
	// fieldIDs maps (class ID, slot) to a dense program-wide field ID.
	fieldBase []int
	numBlocks int
}

// Methods returns every method in the program (free functions first, then
// class methods in declaration order). Valid after Seal.
func (p *Program) Methods() []*Method { return p.methods }

// Lists reports whether m is the method p lists at m.ID. A method p
// does not list keeps whatever ID and block GIDs it last had, so it
// must not index p's ID- or GID-indexed tables. Valid after Seal.
func (p *Program) Lists(m *Method) bool {
	return m != nil && m.ID >= 0 && m.ID < len(p.methods) && p.methods[m.ID] == m
}

// NumMethods returns the number of methods. Valid after Seal.
func (p *Program) NumMethods() int { return len(p.methods) }

// NumBlocks returns the size of the dense program-wide block GID space.
// Valid after Seal.
func (p *Program) NumBlocks() int { return p.numBlocks }

// FieldID maps a class and flattened slot index to a dense program-wide
// field identifier, used by field-access profiles. Valid after Seal.
func (p *Program) FieldID(c *Class, slot int) int {
	return p.fieldBase[c.ID] + slot
}

// ClassByName finds a class by name.
func (p *Program) ClassByName(name string) (*Class, bool) {
	for _, c := range p.Classes {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// MethodByName finds a method by its full name ("Class.name" or "name").
func (p *Program) MethodByName(full string) (*Method, bool) {
	for _, m := range p.methods {
		if m.FullName() == full {
			return m, true
		}
	}
	return nil, false
}

// Seal freezes the program: assigns class/method/field IDs, computes field
// layouts and flattened dispatch tables (the seal-time annotations the
// VM's fast paths rely on), renumbers blocks and recomputes predecessors.
// It must be called
// once construction is complete and again is harmless. Seal panics on
// structural errors that would make IDs meaningless (nil Main, duplicate
// class names); deeper validation belongs to Verify.
func (p *Program) Seal() {
	if p.Main == nil {
		panic("ir: program has no main")
	}
	seen := make(map[string]bool)
	for _, c := range p.Classes {
		if seen[c.Name] {
			panic("ir: duplicate class " + c.Name)
		}
		seen[c.Name] = true
	}
	// Field layout: parents before children. Iterate until fixpoint since
	// Classes order is arbitrary.
	done := make(map[*Class]bool)
	for remaining := len(p.Classes); remaining > 0; {
		progress := false
		for _, c := range p.Classes {
			if done[c] || (c.Super != nil && !done[c.Super]) {
				continue
			}
			if c.Super != nil {
				c.fieldBase = c.Super.NumFields()
			} else {
				c.fieldBase = 0
			}
			c.buildVtab()
			done[c] = true
			remaining--
			progress = true
		}
		if !progress {
			panic("ir: inheritance cycle among classes")
		}
	}
	p.methods = p.methods[:0]
	p.methods = append(p.methods, p.Funcs...)
	for _, c := range p.Classes {
		// Deterministic order: sort method names.
		names := make([]string, 0, len(c.Methods))
		for n := range c.Methods {
			names = append(names, n)
		}
		sortStrings(names)
		for _, n := range names {
			p.methods = append(p.methods, c.Methods[n])
		}
	}
	gid := 0
	for i, m := range p.methods {
		m.ID = i
		m.Renumber()
		m.RecomputePreds()
		for _, b := range m.Blocks {
			b.GID = gid
			gid++
		}
	}
	p.numBlocks = gid
	// Field IDs: reserve the full flattened slot width per class so that
	// FieldID(c, slot) is O(1) even for inherited slots. The space is
	// slightly sparse (an inherited slot has a distinct ID on each
	// subclass), which is fine for profiles: the IR resolves every access
	// against the statically named class.
	p.fieldBase = make([]int, len(p.Classes))
	fields := 0
	for i, c := range p.Classes {
		c.ID = i
		p.fieldBase[i] = fields
		fields += c.NumFields()
	}
	p.sealed = true
}

// Sealed reports whether Seal has run.
func (p *Program) Sealed() bool { return p.sealed }

func sortStrings(s []string) { sort.Strings(s) }

// FmtStats returns a one-line summary of the program for logs.
func (p *Program) FmtStats() string {
	blocks, instrs := 0, 0
	for _, m := range p.methods {
		blocks += len(m.Blocks)
		instrs += m.NumInstrs()
	}
	return fmt.Sprintf("%s: %d classes, %d methods, %d blocks, %d instrs",
		p.Name, len(p.Classes), len(p.methods), blocks, instrs)
}
