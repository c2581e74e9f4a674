package ir

import "fmt"

// Class describes an object layout plus a virtual method table. Single
// inheritance: a subclass's field slots extend its superclass's, so a
// field index resolved against a superclass is valid on any subclass
// instance.
type Class struct {
	// Name is unique within the program.
	Name string
	// Super is the superclass, or nil.
	Super *Class
	// FieldNames are the fields declared by this class (not inherited).
	FieldNames []string
	// Methods are the virtual methods declared by this class, keyed by
	// name. Dispatch walks the superclass chain.
	Methods map[string]*Method

	// ID is the dense program-wide class index (set by Program.Seal).
	ID int
	// fieldBase is the slot offset of this class's first own field.
	fieldBase int
	// vtab is the flattened dispatch table built by Program.Seal: every
	// method visible on this class (own or inherited), keyed by name, so
	// Lookup is a single map hit instead of a superclass-chain walk. Nil
	// before Seal; AddMethod drops it (mutating a sealed hierarchy
	// requires re-sealing).
	vtab map[string]*Method
}

// NumFields returns the total number of field slots of an instance,
// including inherited fields.
func (c *Class) NumFields() int {
	return c.fieldBase + len(c.FieldNames)
}

// FieldIndex resolves a field name (searching this class then supers) to
// its flattened slot index. The second result is false if unknown.
func (c *Class) FieldIndex(name string) (int, bool) {
	for cl := c; cl != nil; cl = cl.Super {
		for i, f := range cl.FieldNames {
			if f == name {
				return cl.fieldBase + i, true
			}
		}
	}
	return 0, false
}

// FieldName maps a flattened slot index back to the declaring name, for
// disassembly. Returns "#idx" if out of range.
func (c *Class) FieldName(idx int) string {
	for cl := c; cl != nil; cl = cl.Super {
		if idx >= cl.fieldBase && idx < cl.fieldBase+len(cl.FieldNames) {
			return cl.FieldNames[idx-cl.fieldBase]
		}
	}
	return fmt.Sprintf("#%d", idx)
}

// Lookup resolves a virtual method name against this class. After Seal it
// is a single lookup in the flattened vtable; before Seal (or after a
// post-seal AddMethod) it walks the superclass chain. The second result is
// false if no class in the chain declares the method. The VM's reference
// dispatcher calls it per virtual call; the fast path calls it once per
// class and call name when it builds its slot table, and per call only
// for a receiver whose class the program does not list at its ID.
func (c *Class) Lookup(name string) (*Method, bool) {
	if c.vtab != nil {
		m, ok := c.vtab[name]
		return m, ok
	}
	for cl := c; cl != nil; cl = cl.Super {
		if m, ok := cl.Methods[name]; ok {
			return m, true
		}
	}
	return nil, false
}

// IsSubclassOf reports whether c is other or a (transitive) subclass.
func (c *Class) IsSubclassOf(other *Class) bool {
	for cl := c; cl != nil; cl = cl.Super {
		if cl == other {
			return true
		}
	}
	return false
}

// AddMethod declares a virtual method on the class and returns it. It
// invalidates the class's sealed vtable; if the program was already
// sealed, Seal must run again before dispatch (subclass vtables are
// rebuilt there too).
func (c *Class) AddMethod(m *Method) *Method {
	if c.Methods == nil {
		c.Methods = make(map[string]*Method)
	}
	m.Class = c
	c.Methods[m.Name] = m
	c.vtab = nil
	return m
}

// buildVtab flattens the dispatch table: the superclass's table (already
// built — Seal processes parents first) overlaid with own declarations.
func (c *Class) buildVtab() {
	n := len(c.Methods)
	if c.Super != nil {
		n += len(c.Super.vtab)
	}
	c.vtab = make(map[string]*Method, n)
	if c.Super != nil {
		for name, m := range c.Super.vtab {
			c.vtab[name] = m
		}
	}
	for name, m := range c.Methods {
		c.vtab[name] = m
	}
}
