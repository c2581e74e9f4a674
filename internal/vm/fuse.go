package vm

import (
	"fmt"

	"instrsample/internal/ir"
)

// Fused streams: the fast path's only executor.
//
// The fast dispatcher translates every block of the program once per VM
// into a fused stream and runs it in runFusedBlocks, which removes two
// per-instruction costs:
//
//   - cost accounting: the whole block's cycle cost and instruction
//     count are charged at the terminator from precomputed prefix sums,
//     which also reconstruct the exact per-instruction counters wherever
//     something can read them (trap, yieldpoint, probe, check, call,
//     spawn, join, cancellation);
//   - dispatch: a peephole pass matches the hot opcode pairs/triples
//     observed in the benchmark suite (const+ALU, ALU+ALU,
//     compare+branch, field/array pairs, and the add+yield+jmp loop
//     latch) and rewrites the block into a stream of fixed-width fused
//     instructions (fInstr), one dispatch per superinstruction.
//
// A program the streams cannot represent runs on the reference
// dispatcher as a whole (see buildFusion); ref.go is the only
// per-instruction interpreter.
//
// Calls and returns (runThread): a call or return token ends the fused
// segment. The token charges the block prefix up to and including
// itself and leaves runFusedBlocks, whose loop therefore never switches
// frames; the trampoline runThread pushes or pops the frame through the
// call and ret paths, then re-enters the callee's entry stream or the
// caller's stream at the token after the call. A stream entered at
// original pc p starts with its counters lowered by prefix[p] and p, so
// every prefix-sum reconstruction below stays exact mid-block. resume
// maps each pc where a frame can stop to the token starting there: a
// call or join is always a single base token, so the pc of a join and
// the pc after a call always start one, and a latch superinstruction
// whose yieldpoint reschedules the thread resumes at its jump through a
// tail jump token appended to the stream.
//
// Cost scale (Config.CostScale): a frame whose method runs at scale s
// runs the stream table whose prefix sums are built at s (streamsAt),
// one table per distinct scale, sharing the scale-1 table's tokens.
//
// Dispatch is token-threaded: fInstr.tok is a dense token index and the
// executor switches over it, which the Go compiler lowers to a jump
// table — the closest safe analogue of computed-goto threading (a
// [numToks]func handler table was measured and rejected: indirect calls
// force the loop's cycle/icount/pc locals out of registers; see
// BenchmarkFusedDispatchStyle and DESIGN.md §7.6).
//
// Correctness contract (DESIGN.md §7.6): fusion must be invisible in
// every Result. The fused stream is a *side table* on the VM — the
// ir.Program is never mutated, the reference dispatcher never sees it —
// and each fInstr records the original pc of its first sub-instruction,
// so every early exit reconstructs the exact per-instruction counters:
//
//   - sub-instructions execute in original order with original
//     semantics (all destination registers are written, traps use the
//     reference messages);
//   - a trap in sub-instruction k of a superinstruction at original pc
//     P reports pc P+k and charges prefix[P+k+1] — identical to the
//     reference's charge-before-execute order, with the preceding
//     sub-instructions' register effects already applied;
//   - a yieldpoint inside a superinstruction (the latch fusions) is a
//     full observation point: cancellation and quantum expiry flush
//     counters for the yield's own original pc, so a resumed frame
//     restarts at the exact instruction the generic loop would have;
//   - a probe or sample check at original pc P hands the trigger's
//     Poll, the observer and the probe handler cycles + prefix[P+1],
//     the count the reference dispatcher has there, with f.PC = P at a
//     probe. Its own costs (the check, the probe's payload cost) are
//     charged immediately, like OpIO's, so they commute with the
//     deferred block charge;
//   - a call at original pc P leaves with f.PC = P and the counters at
//     cycles + prefix[P+1], as the reference dispatcher has them when
//     it pushes the frame; a join whose target still runs leaves the
//     same way, with f.PC = P, and is charged again when it re-runs.
//
// Stores (DESIGN.md §7.5): the loop stores a pointer only where one
// changes, because Go puts a GC write barrier on every pointer store.
// A register, field or element is written through setI (an integer)
// or set (a copy), never as a whole Value, except a new reference
// (RefVal); TestFusedStoresBarrierFree enforces it. And a chained
// transfer leaves f.Block stale: each fusedBlock carries its block
// (blk), which the loop stores in f.Block, when it differs, before
// every hook, handler, exit and trap, where something can read it. The
// call and ret paths keep the same rule (TestCallPathStoresBarrierFree).
//
// Observers (DESIGN.md §7.6): every observer keeps the fused streams,
// with two changes that a nil observer never pays for. The yieldpoint
// tokens are swapped for wake variants (fYieldWake and friends) that
// deliver OnYield when the observer's mask or deadline asks for it, at
// the exact cycle the reference dispatcher would report. And the chain
// edges the observer must see are cut (next[i] == nil): every edge for
// a mask with EvTransfer — every observer that declares no mask — and
// the checking↔duplicated edges, the sampling-episode boundaries, for
// any other; cutEdge delivers the transfer and the chain runs on in the
// target's stream. The probe and check tokens need no variants: like
// the reference dispatcher they test the observer once per probe or
// check, and the call and ret paths deliver OnEnter and OnExit. Results
// are bit-identical either way.

// fuseTok is a dense fused-opcode token. Base tokens execute exactly one
// original instruction; fused tokens execute two or three.
type fuseTok uint8

const (
	fuseInvalid fuseTok = iota

	// Base tokens, one per opcode.
	fNop
	fConst
	fMove
	fAdd
	fSub
	fMul
	fDiv
	fRem
	fAnd
	fOr
	fXor
	fShl
	fShr
	fNeg
	fNot
	fCmpEQ
	fCmpNE
	fCmpLT
	fCmpLE
	fCmpGT
	fCmpGE
	fClassOf
	fNew
	fGetField
	fPutField
	fNewArray
	fALoad
	fAStore
	fALen
	fIO
	fPrint
	fYield
	fProbe
	fCheckedProbe
	fJump
	fBranch
	fCheck
	fLoopCheck
	// fSpawn reads the spawned method and arguments from the original
	// instruction.
	fSpawn
	fJoin
	// fCall serves OpCall and OpCallVirt: runThread reads the callee,
	// receiver and arguments from the original instruction, and a
	// virtual call's selector from the token's imm2 (buildFusion).
	fCall
	fReturn

	// const + op superinstructions.
	fConstAdd
	fConstSub
	fConstMul
	fConstAnd
	fConstOr
	fConstXor
	fConstShl
	fConstShr
	fConstConst
	fConstCmpEQ
	fConstCmpLT

	// op + const superinstructions.
	fAddConst
	fMulConst
	fAndConst
	fXorConst
	fShlConst
	fShrConst

	// ALU + ALU superinstructions.
	fShlXor
	fShrXor
	fXorShl
	fXorShr
	fMulXor
	fMulAdd

	// compare + branch superinstructions (branch must test the compare's
	// destination).
	fCmpEQBr
	fCmpNEBr
	fCmpLTBr
	fCmpLEBr
	fCmpGTBr
	fCmpGEBr

	// Loop-latch superinstructions: the backedge yieldpoint plus its
	// jump, optionally with the induction increment.
	fYieldJmp
	fAddYieldJmp

	// Field/array superinstructions.
	fGetFieldConst
	fPutFieldGetField
	fALoadGetField
	fALoadMul
	fAddALoad
	fAddPutField
	fAndPutField
	fXorPutField
	fAndAStore
	fAStoreJmp

	// Wake variants of the yieldpoint tokens, emitted instead of them
	// when an observer is installed: each delivers a due OnYield, then
	// falls through to its plain token.
	fYieldWake
	fYieldJmpWake
	fAddYieldJmpWake

	fuseNumToks
)

// wakeToks maps each yieldpoint token to its wake variant.
var wakeToks = map[fuseTok]fuseTok{
	fYield:       fYieldWake,
	fYieldJmp:    fYieldJmpWake,
	fAddYieldJmp: fAddYieldJmpWake,
}

// superNames names the superinstruction tokens for FusionStats.ByKind
// and the telemetry meter. Base tokens are intentionally absent.
var superNames = map[fuseTok]string{
	fConstAdd:         "const+add",
	fConstSub:         "const+sub",
	fConstMul:         "const+mul",
	fConstAnd:         "const+and",
	fConstOr:          "const+or",
	fConstXor:         "const+xor",
	fConstShl:         "const+shl",
	fConstShr:         "const+shr",
	fConstConst:       "const+const",
	fConstCmpEQ:       "const+cmpeq",
	fConstCmpLT:       "const+cmplt",
	fAddConst:         "add+const",
	fMulConst:         "mul+const",
	fAndConst:         "and+const",
	fXorConst:         "xor+const",
	fShlConst:         "shl+const",
	fShrConst:         "shr+const",
	fShlXor:           "shl+xor",
	fShrXor:           "shr+xor",
	fXorShl:           "xor+shl",
	fXorShr:           "xor+shr",
	fMulXor:           "mul+xor",
	fMulAdd:           "mul+add",
	fCmpEQBr:          "cmpeq+br",
	fCmpNEBr:          "cmpne+br",
	fCmpLTBr:          "cmplt+br",
	fCmpLEBr:          "cmple+br",
	fCmpGTBr:          "cmpgt+br",
	fCmpGEBr:          "cmpge+br",
	fYieldJmp:         "yield+jmp",
	fAddYieldJmp:      "add+yield+jmp",
	fGetFieldConst:    "getfield+const",
	fPutFieldGetField: "putfield+getfield",
	fALoadGetField:    "aload+getfield",
	fALoadMul:         "aload+mul",
	fAddALoad:         "add+aload",
	fAddPutField:      "add+putfield",
	fAndPutField:      "and+putfield",
	fXorPutField:      "xor+putfield",
	fAndAStore:        "and+astore",
	fAStoreJmp:        "astore+jmp",
}

// fInstr is one fused-stream instruction: 32 bytes, two per cache line
// (guarded by a size-assert test, like ir.Instr's 112-byte layout).
//
// Slot meaning follows the original instruction's operand order, three
// int16 slots per sub-instruction: sub-op 1 uses dst/a/b and imm,
// sub-op 2 uses c/d/e and imm2. Per-op slot packing (opSlots):
//
//	const/spawn      dst=Dst                  imm=Imm
//	move/neg/not/…   dst=Dst a=A
//	join             dst=Dst a=A
//	binop/cmp/aload  dst=Dst a=A   b=B
//	astore           dst=array(Dst) a=val(A) b=idx(B)
//	getfield         dst=Dst a=obj(A) b=field slot
//	putfield         dst=field slot a=src(A) b=obj(B)
//	branch           a=A
//	io               imm=Imm
//	probe/check/…    (none)
//	call/return      (none)             imm2=selector (callvirt)
//
// pc is the original index of sub-op 1 in Block.Instrs; n is the number
// of original instructions the token covers. Targets, classes, probes
// and the backedge mask are read from the original instruction at
// reconstruction and transfer time, so nothing wide needs to live in
// the fused stream.
type fInstr struct {
	tok  fuseTok
	n    uint8
	pc   uint16
	dst  int16
	a    int16
	b    int16
	c    int16
	d    int16
	e    int16
	imm  int64
	imm2 int64
}

// kindCount is a static per-block superinstruction census entry; the
// dynamic ByKind counters are reconstructed as exec-count × census.
type kindCount struct {
	tok fuseTok
	n   uint32
}

// fusedBlock is the fused stream for one block at one cost scale.
type fusedBlock struct {
	// blk is the block the stream runs. The fused loop leaves f.Block
	// stale across chained transfers and writes blk there wherever
	// something can read it: hooks, handlers, exits and traps.
	blk  *ir.Block
	code []fInstr
	// total is the summed cycle cost of the whole block at the table's
	// cost scale; count is len(Instrs); prefix[i] is the summed cycle
	// cost of Instrs[:i], so prefix[count] == total. targets/mask cache
	// the terminator's Targets slice and BackedgeMask (a streamed block
	// has exactly one terminator, so they are exit-invariant): steady-state
	// fused execution touches only this struct, never the 112-byte
	// original instructions, except for OpNew's class, a spawn's callee
	// and arguments, and a probe.
	total   uint64
	count   uint64
	prefix  []uint64
	targets []*ir.Block
	// next[i] is targets[i]'s fused stream in the same table, or nil
	// where the observer must see the edge (cutEdge), precomputed so a
	// chained transfer is one pointer load instead of a table lookup.
	next []*fusedBlock
	mask uint8
	// resume[p] is the index of the token that starts at original pc
	// p, where a return, a join or a rescheduled thread re-enters the
	// stream, or noResume when no frame can stop at p.
	resume []uint16
	// execs counts fused-loop entries into this block at its first
	// instruction, entry-granular (see FusionStats). It lives in the
	// stream itself — already hot at transfer time — rather than in a
	// GID-indexed side slice.
	execs uint64
	// supers is the number of superinstructions (n >= 2) in code;
	// covered is the number of original instructions inside them.
	supers  uint32
	covered uint32
	kinds   []kindCount
}

// FusionStats reports fusion coverage for a VM. Static fields describe
// the fused streams built for the program; dynamic fields aggregate
// execution counts over every cost scale's table. Instrs is exact:
// every instruction retired on a fused stream counts once, whether its
// block was entered at the top or resumed mid-way after a call, a join
// or a reschedule, so it equals Stats.Instrs on the fast path and is 0
// on a run the reference dispatcher executed. BlockRuns, Dispatches,
// Fused and ByKind stay entry-granular: a fused block counts in full
// when the fused loop enters it at its first instruction, including the
// rare runs that then stop early through a trap or cancellation, and a
// mid-block resume counts nothing. Fusion statistics are deliberately
// kept out of Stats, which is compared bit-for-bit between dispatchers.
type FusionStats struct {
	// FusedBlocks is the number of blocks with a fused stream; Supers
	// and Covered are the static superinstruction count and the original
	// instructions they cover across those streams.
	FusedBlocks int
	Supers      int
	Covered     int
	// BlockRuns counts fused-stream block entries; Dispatches the
	// fused-stream tokens of those blocks; Instrs the original
	// instructions retired on fused streams; Fused the instructions of
	// the entered blocks that sit inside superinstructions. Fused/Instrs
	// is the fused-dispatch fraction of the fast path.
	BlockRuns  uint64
	Dispatches uint64
	Instrs     uint64
	Fused      uint64
	// ByKind counts dynamic superinstruction executions per kind name
	// (see superNames).
	ByKind map[string]uint64
}

// FusionStats returns the fusion coverage accumulated so far. The
// result is never nil-mapped; on a reference run all fields are zero.
func (v *VM) FusionStats() FusionStats {
	fs := FusionStats{ByKind: make(map[string]uint64), Instrs: v.fusedInstrs}
	tabs := [][]*fusedBlock{v.fuse}
	for _, st := range v.scaled {
		tabs = append(tabs, st.blocks)
	}
	for i, tab := range tabs {
		for _, fb := range tab {
			if fb == nil {
				continue
			}
			if i == 0 {
				fs.FusedBlocks++
				fs.Supers += int(fb.supers)
				fs.Covered += int(fb.covered)
			}
			runs := fb.execs
			if runs == 0 {
				continue
			}
			fs.BlockRuns += runs
			// An entry dispatches one token per superinstruction and
			// per other instruction; a tail jump token only resumes.
			fs.Dispatches += runs * (fb.count - uint64(fb.covered) + uint64(fb.supers))
			fs.Fused += runs * uint64(fb.covered)
			for _, kc := range fb.kinds {
				fs.ByKind[superNames[kc.tok]] += runs * uint64(kc.n)
			}
		}
	}
	return fs
}

// scaledStreams is the stream table of one cost scale other than 1.
type scaledStreams struct {
	scale  uint32
	blocks []*fusedBlock
}

// buildFusion builds the GID-indexed scale-1 stream table v.fuse under
// the VM's cost model and reports whether streams can represent the
// program; Run sends a program they cannot represent to the reference
// dispatcher as a whole. That is a program whose GIDs gidsTrusted
// rejects — the table must never charge one block with another block's
// costs — or one with a block that does not end in its only terminator
// or whose operands do not fit the compact encoding (fuseBlock).
//
// With an observer installed the yieldpoint tokens are swapped for
// their wake variants, and price cuts the chain edges the observer
// must see. Each virtual call's token gets its selector, the index of
// its method name among the program's virtual-call names, which
// buildSlots turns into the slot table.
func (v *VM) buildFusion() bool {
	if !gidsTrusted(v.prog) {
		return false
	}
	tab := make([]*fusedBlock, v.prog.NumBlocks())
	sels := make(map[string]int)
	var names []string
	for _, m := range v.prog.Methods() {
		for _, b := range m.Blocks {
			fb := fuseBlock(b)
			if fb == nil {
				return false
			}
			for i := range fb.code {
				fi := &fb.code[i]
				if w, ok := wakeToks[fi.tok]; ok && v.obs != nil {
					fi.tok = w
				}
				if in := &b.Instrs[fi.pc]; fi.tok == fCall && in.Op == ir.OpCallVirt {
					s, ok := sels[in.Name]
					if !ok {
						s = len(names)
						sels[in.Name] = s
						names = append(names, in.Name)
					}
					fi.imm2 = int64(s)
				}
			}
			tab[b.GID] = fb
		}
	}
	v.price(tab, 1)
	v.fuse = tab
	v.buildSlots(names)
	return true
}

// buildSlots builds the virtual-call table for the selectors names:
// one row per class, at the index the program lists it, resolved by
// Class.Lookup once per VM instead of once per call. The rows are the
// VM's, not the class's: a class sealed into two programs carries the
// ID of the last Seal, which may index another class's row here, so
// virtual checks at every call that the program lists the receiver's
// class at its ID.
func (v *VM) buildSlots(names []string) {
	v.nsel = len(names)
	v.slots = make([]*ir.Method, len(v.prog.Classes)*len(names))
	for id, c := range v.prog.Classes {
		for s, name := range names {
			v.slots[id*len(names)+s], _ = c.Lookup(name)
		}
	}
}

// price fills in the cost-scale-dependent half of the stream table tab
// at scale s: each stream's prefix sums, charged as per-instruction
// dispatch charges them (the uint32 product cost*s wraps before it
// widens), and its chain successors in tab. An edge is cut (nil) when
// the observer must see it: every edge under a mask with EvTransfer,
// and the sampling-episode boundaries under any other.
func (v *VM) price(tab []*fusedBlock, s uint32) {
	for _, m := range v.prog.Methods() {
		for _, b := range m.Blocks {
			fb := tab[b.GID]
			fb.prefix = make([]uint64, len(b.Instrs)+1)
			for i := range b.Instrs {
				fb.prefix[i+1] = fb.prefix[i] + uint64(v.costTab[b.Instrs[i].Op]*s)
			}
			fb.count = uint64(len(b.Instrs))
			fb.total = fb.prefix[fb.count]
			term := &b.Instrs[len(b.Instrs)-1]
			fb.targets, fb.mask = term.Targets, term.BackedgeMask
			fb.next = make([]*fusedBlock, len(fb.targets))
			for i, tb := range fb.targets {
				if v.obs == nil || v.evMask&EvTransfer == 0 && !episodeEdge(b, tb) {
					fb.next[i] = tab[tb.GID]
				}
			}
		}
	}
}

// streamsAt returns the stream table a frame at cost scale s runs,
// building it on first use from the scale-1 table's tokens.
func (v *VM) streamsAt(s uint32) []*fusedBlock {
	if s == 1 {
		return v.fuse
	}
	for _, st := range v.scaled {
		if st.scale == s {
			return st.blocks
		}
	}
	tab := make([]*fusedBlock, len(v.fuse))
	for gid, fb := range v.fuse {
		if fb != nil {
			c := *fb
			c.execs = 0
			tab[gid] = &c
		}
	}
	v.price(tab, s)
	v.scaled = append(v.scaled, scaledStreams{s, tab})
	return tab
}

// sameTable reports whether a and b are the same stream table.
func sameTable(a, b []*fusedBlock) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// gidsTrusted reports whether the program's block GIDs can index the
// stream table: every listed block's GID is in [0, NumBlocks) and no
// two share one, every branch targets a listed block, every direct call
// or spawn targets a listed method, and every new names a listed class
// (whose methods, the only virtual callees, are listed), so every
// block a run can reach is a listed one. A program mutated after its
// last Seal can break any of these, and a method or block the program
// does not list carries whatever GID it last had, possibly a listed
// block's.
func gidsTrusted(p *ir.Program) bool {
	blocks := make([]*ir.Block, p.NumBlocks())
	for _, m := range p.Methods() {
		for _, b := range m.Blocks {
			if b.GID < 0 || b.GID >= len(blocks) || blocks[b.GID] != nil {
				return false
			}
			blocks[b.GID] = b
		}
	}
	for _, m := range p.Methods() {
		for _, b := range m.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch {
				case (in.Op == ir.OpCall || in.Op == ir.OpSpawn) && !p.Lists(in.Method),
					in.Op == ir.OpNew && !p.ListsClass(in.Class):
					return false
				}
				for _, tb := range in.Targets {
					if tb == nil || uint(tb.GID) >= uint(len(blocks)) || blocks[tb.GID] != tb {
						return false
					}
				}
			}
		}
	}
	return true
}

// wellFormed reports whether b ends in its only terminator.
func wellFormed(b *ir.Block) bool {
	n := len(b.Instrs)
	for i := range b.Instrs {
		if b.Instrs[i].IsTerminator() != (i == n-1) {
			return false
		}
	}
	return n > 0
}

// fuseBlock translates one block into a fused stream, greedily matching
// superinstructions left to right (triples before pairs). It returns
// nil when the block does not end in its only terminator or an operand
// overflows the compact fInstr encoding.
func fuseBlock(b *ir.Block) *fusedBlock {
	ins := b.Instrs
	if len(ins) > 0xFFFF || !wellFormed(b) {
		return nil
	}
	fb := &fusedBlock{blk: b, resume: make([]uint16, len(ins))}
	kinds := make(map[fuseTok]uint32)
	for pc := 0; pc < len(ins); {
		tok, n := matchSuper(ins, pc)
		if n == 0 {
			tok, n = baseToks[ins[pc].Op], 1
			if tok == fuseInvalid {
				return nil // an opcode with no token
			}
		}
		fb.resume[pc] = uint16(len(fb.code))
		for k := 1; k < n; k++ {
			fb.resume[pc+k] = noResume
		}
		fi := fInstr{tok: tok, n: uint8(n), pc: uint16(pc)}
		var ok bool
		fi.dst, fi.a, fi.b, ok = opSlots(&ins[pc])
		if !ok {
			return nil
		}
		fi.imm = ins[pc].Imm
		if n >= 2 {
			fi.c, fi.d, fi.e, ok = opSlots(&ins[pc+1])
			if !ok {
				return nil
			}
			fi.imm2 = ins[pc+1].Imm
			fb.supers++
			fb.covered += uint32(n)
			kinds[tok]++
		}
		fb.code = append(fb.code, fi)
		pc += n
	}
	// A latch's yieldpoint can reschedule the thread before the latch's
	// jump runs: the jump then resumes through a tail token, which no
	// entry reaches because the latch before it always transfers.
	if last := fb.code[len(fb.code)-1].tok; last == fYieldJmp || last == fAddYieldJmp {
		jmp := len(ins) - 1
		fb.resume[jmp] = uint16(len(fb.code))
		fb.code = append(fb.code, fInstr{tok: fJump, n: 1, pc: uint16(jmp)})
	}
	for tok, n := range kinds {
		fb.kinds = append(fb.kinds, kindCount{tok, n})
	}
	return fb
}

// noResume marks a resume entry where no frame can stop: inside a
// superinstruction, other than a latch's jump. Token indices stay below
// it because a stream holds at most one token per instruction (a tail
// token follows a superinstruction of two or three) and covers at most
// 0xFFFF instructions.
const noResume = 0xFFFF

// baseToks maps each opcode to its base token; fuseInvalid marks a
// value that names no opcode.
var baseToks = [ir.NumOpcodes]fuseTok{
	ir.OpNop:          fNop,
	ir.OpConst:        fConst,
	ir.OpMove:         fMove,
	ir.OpAdd:          fAdd,
	ir.OpSub:          fSub,
	ir.OpMul:          fMul,
	ir.OpDiv:          fDiv,
	ir.OpRem:          fRem,
	ir.OpAnd:          fAnd,
	ir.OpOr:           fOr,
	ir.OpXor:          fXor,
	ir.OpShl:          fShl,
	ir.OpShr:          fShr,
	ir.OpNeg:          fNeg,
	ir.OpNot:          fNot,
	ir.OpCmpEQ:        fCmpEQ,
	ir.OpCmpNE:        fCmpNE,
	ir.OpCmpLT:        fCmpLT,
	ir.OpCmpLE:        fCmpLE,
	ir.OpCmpGT:        fCmpGT,
	ir.OpCmpGE:        fCmpGE,
	ir.OpClassOf:      fClassOf,
	ir.OpNew:          fNew,
	ir.OpGetField:     fGetField,
	ir.OpPutField:     fPutField,
	ir.OpNewArray:     fNewArray,
	ir.OpArrayLoad:    fALoad,
	ir.OpArrayStore:   fAStore,
	ir.OpArrayLen:     fALen,
	ir.OpIO:           fIO,
	ir.OpPrint:        fPrint,
	ir.OpYield:        fYield,
	ir.OpProbe:        fProbe,
	ir.OpCheckedProbe: fCheckedProbe,
	ir.OpJump:         fJump,
	ir.OpBranch:       fBranch,
	ir.OpCheck:        fCheck,
	ir.OpLoopCheck:    fLoopCheck,
	ir.OpSpawn:        fSpawn,
	ir.OpJoin:         fJoin,
	ir.OpCall:         fCall,
	ir.OpCallVirt:     fCall,
	ir.OpReturn:       fReturn,
}

// cmpBrToks maps a comparison opcode to its fused compare+branch token.
var cmpBrToks = map[ir.Op]fuseTok{
	ir.OpCmpEQ: fCmpEQBr,
	ir.OpCmpNE: fCmpNEBr,
	ir.OpCmpLT: fCmpLTBr,
	ir.OpCmpLE: fCmpLEBr,
	ir.OpCmpGT: fCmpGTBr,
	ir.OpCmpGE: fCmpGEBr,
}

// pairToks maps non-terminator adjacent opcode pairs to their
// superinstruction; terminator-involving fusions (compare+branch,
// yield+jmp, astore+jmp) are matched explicitly in matchSuper.
var pairToks = map[[2]ir.Op]fuseTok{
	{ir.OpConst, ir.OpAdd}:          fConstAdd,
	{ir.OpConst, ir.OpSub}:          fConstSub,
	{ir.OpConst, ir.OpMul}:          fConstMul,
	{ir.OpConst, ir.OpAnd}:          fConstAnd,
	{ir.OpConst, ir.OpOr}:           fConstOr,
	{ir.OpConst, ir.OpXor}:          fConstXor,
	{ir.OpConst, ir.OpShl}:          fConstShl,
	{ir.OpConst, ir.OpShr}:          fConstShr,
	{ir.OpConst, ir.OpConst}:        fConstConst,
	{ir.OpConst, ir.OpCmpEQ}:        fConstCmpEQ,
	{ir.OpConst, ir.OpCmpLT}:        fConstCmpLT,
	{ir.OpAdd, ir.OpConst}:          fAddConst,
	{ir.OpMul, ir.OpConst}:          fMulConst,
	{ir.OpAnd, ir.OpConst}:          fAndConst,
	{ir.OpXor, ir.OpConst}:          fXorConst,
	{ir.OpShl, ir.OpConst}:          fShlConst,
	{ir.OpShr, ir.OpConst}:          fShrConst,
	{ir.OpShl, ir.OpXor}:            fShlXor,
	{ir.OpShr, ir.OpXor}:            fShrXor,
	{ir.OpXor, ir.OpShl}:            fXorShl,
	{ir.OpXor, ir.OpShr}:            fXorShr,
	{ir.OpMul, ir.OpXor}:            fMulXor,
	{ir.OpMul, ir.OpAdd}:            fMulAdd,
	{ir.OpGetField, ir.OpConst}:     fGetFieldConst,
	{ir.OpPutField, ir.OpGetField}:  fPutFieldGetField,
	{ir.OpArrayLoad, ir.OpGetField}: fALoadGetField,
	{ir.OpArrayLoad, ir.OpMul}:      fALoadMul,
	{ir.OpAdd, ir.OpArrayLoad}:      fAddALoad,
	{ir.OpAdd, ir.OpPutField}:       fAddPutField,
	{ir.OpAnd, ir.OpPutField}:       fAndPutField,
	{ir.OpXor, ir.OpPutField}:       fXorPutField,
	{ir.OpAnd, ir.OpArrayStore}:     fAndAStore,
}

// matchSuper reports the superinstruction starting at ins[pc], or
// (fuseInvalid, 0) when none matches. The set is chosen from the
// dynamic pair profile of the benchmark suite (DESIGN.md §7.6 records
// the measurement): on compress — the 2x-gate benchmark — the selected
// pairs cover over half of all fused-tier instructions.
func matchSuper(ins []ir.Instr, pc int) (fuseTok, int) {
	if pc+2 < len(ins) &&
		ins[pc].Op == ir.OpAdd && ins[pc+1].Op == ir.OpYield && ins[pc+2].Op == ir.OpJump {
		return fAddYieldJmp, 3
	}
	if pc+1 >= len(ins) {
		return fuseInvalid, 0
	}
	a, b := ins[pc].Op, ins[pc+1].Op
	switch b {
	case ir.OpJump:
		switch a {
		case ir.OpYield:
			return fYieldJmp, 2
		case ir.OpArrayStore:
			return fAStoreJmp, 2
		}
		return fuseInvalid, 0
	case ir.OpBranch:
		// Fuse only when the branch tests the comparison it follows.
		if tok, ok := cmpBrToks[a]; ok && ins[pc+1].A == ins[pc].Dst {
			return tok, 2
		}
		return fuseInvalid, 0
	}
	if tok, ok := pairToks[[2]ir.Op{a, b}]; ok {
		return tok, 2
	}
	return fuseInvalid, 0
}

// opSlots packs an instruction's register/field operands into three
// int16 slots (see the fInstr layout comment). ok is false when a value
// overflows the compact encoding.
func opSlots(in *ir.Instr) (s1, s2, s3 int16, ok bool) {
	switch in.Op {
	case ir.OpNop, ir.OpYield, ir.OpJump, ir.OpIO,
		ir.OpProbe, ir.OpCheckedProbe, ir.OpCheck, ir.OpLoopCheck,
		ir.OpCall, ir.OpCallVirt, ir.OpReturn:
		return 0, 0, 0, true
	case ir.OpConst, ir.OpSpawn:
		s1, ok = reg16(in.Dst)
		return s1, 0, 0, ok
	case ir.OpMove, ir.OpNeg, ir.OpNot, ir.OpClassOf, ir.OpNew,
		ir.OpNewArray, ir.OpArrayLen, ir.OpJoin:
		var ok2 bool
		s1, ok = reg16(in.Dst)
		s2, ok2 = reg16(in.A)
		return s1, s2, 0, ok && ok2
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
		ir.OpArrayLoad, ir.OpArrayStore:
		var ok2, ok3 bool
		s1, ok = reg16(in.Dst)
		s2, ok2 = reg16(in.A)
		s3, ok3 = reg16(in.B)
		return s1, s2, s3, ok && ok2 && ok3
	case ir.OpGetField:
		var ok2, ok3 bool
		s1, ok = reg16(in.Dst)
		s2, ok2 = reg16(in.A)
		s3, ok3 = field16(in.FieldSlot())
		return s1, s2, s3, ok && ok2 && ok3
	case ir.OpPutField:
		var ok2, ok3 bool
		s1, ok = field16(in.FieldSlot())
		s2, ok2 = reg16(in.A)
		s3, ok3 = reg16(in.B)
		return s1, s2, s3, ok && ok2 && ok3
	case ir.OpPrint, ir.OpBranch:
		s2, ok = reg16(in.A)
		return 0, s2, 0, ok
	}
	return 0, 0, 0, false
}

func reg16(r ir.Reg) (int16, bool) {
	if r < -1 || r > 0x7FFF {
		return 0, false
	}
	return int16(r), true
}

func field16(f int) (int16, bool) {
	if f < 0 || f > 0x7FFF {
		return 0, false
	}
	return int16(f), true
}

// fusedExit says how runFusedBlocks left its loop.
type fusedExit uint8

const (
	// exitSched: the thread leaves the CPU (rescheduled, blocked, or
	// stopped with an error); the counters are flushed.
	exitSched fusedExit = iota
	// exitCall: the call at f.PC is charged; runThread pushes its frame.
	exitCall
	// exitReturn: the return at f.PC is charged; runThread pops f.
	exitReturn
)

// runThread executes t until a scheduling event: quantum expiry at a
// yieldpoint, a join on a running thread, or thread completion. It
// enters the top frame's stream at its pc and is the trampoline around
// runFusedBlocks: at a call token it pushes the callee's frame and
// continues in the callee's entry stream, and at a return token it pops
// the frame and continues in the caller's stream at the token after
// the call, each through the call and ret paths. It returns a trap or
// cancellation error, with the counters flushed.
//
// The cycle budget is checked at thread entry, block transfers and
// frame pushes rather than per instruction: a runaway program traps
// with the reference dispatcher's error, a block-bounded number of
// instructions later than the reference would, never earlier.
func (v *VM) runThread(t *Thread) error {
	f := t.Top()
	if f.PC == 0 {
		v.touchCode(f.Block)
	}
	cycles, icount := v.cycles, v.stats.Instrs
	if cycles > v.cfg.MaxCycles {
		return v.trapBudgetAt(t, cycles, icount)
	}
	start := icount
	fb := f.fuse[f.Block.GID]
	ti := int(fb.resume[f.PC])
	var exit fusedExit
	var err error
	for {
		if ti == 0 {
			fb.execs++
		} else {
			// Mid-block entry keeps the block-start base.
			p := fb.code[ti].pc
			cycles -= fb.prefix[p]
			icount -= uint64(p)
		}
		cycles, icount, exit, err = v.runFusedBlocks(t, f, fb, fb.code[ti:], cycles, icount)
		if err != nil || exit == exitSched {
			break
		}
		in := &f.Block.Instrs[f.PC]
		if exit == exitCall {
			if f, cycles, err = v.call(t, f, in, cycles, icount); err != nil {
				break
			}
		} else if f, cycles = v.ret(t, f, in, cycles, icount); f == nil {
			break
		} else {
			f.PC++ // step past the call
		}
		fb = f.fuse[f.Block.GID]
		ti = int(fb.resume[f.PC])
	}
	v.fusedInstrs += icount - start
	return err
}

// runFusedBlocks executes a chain of fused blocks in frame f, starting
// with code, a suffix of f.Block's stream fb, whose first token starts
// at original pc p with the counters lowered by prefix[p] and p. It
// charges cycles and instruction counts a block at a time and never
// switches frames: a call or return token ends it. It returns the
// updated local counters plus how it left (fusedExit); err != nil
// means trap or cancellation (counters already flushed).
//
// Within a block, cost additions that merely accumulate (OpIO, the
// OpNewArray zeroing charge, a checked probe's check, a probe's payload
// cost) are applied immediately; they commute with the deferred block
// charge, so every observation point still sees the reference-exact
// value. Early exits charge prefix[pc+1]: the cost of every instruction
// up to and including the current one, matching the reference's
// charge-before-execute order.
func (v *VM) runFusedBlocks(t *Thread, f *Frame, fb *fusedBlock, code []fInstr, cycles, icount uint64) (uint64, uint64, fusedExit, error) {
	regs := f.Regs
	limit := v.cfg.MaxCycles
	quantum := v.quantum
	var tgt int // taken target index
	for {
		for pc := 0; pc < len(code); pc++ {
			in := &code[pc]
			switch in.tok {
			case fNop:

			case fConst:
				setI(&regs[in.dst], in.imm)
			case fMove:
				set(&regs[in.dst], regs[in.a])

			case fAdd:
				setI(&regs[in.dst], regs[in.a].I+regs[in.b].I)
			case fSub:
				setI(&regs[in.dst], regs[in.a].I-regs[in.b].I)
			case fMul:
				setI(&regs[in.dst], regs[in.a].I*regs[in.b].I)
			case fDiv:
				d := regs[in.b].I
				if d == 0 {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "division by zero")
				}
				setI(&regs[in.dst], regs[in.a].I/d)
			case fRem:
				d := regs[in.b].I
				if d == 0 {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "remainder by zero")
				}
				setI(&regs[in.dst], regs[in.a].I%d)
			case fAnd:
				setI(&regs[in.dst], regs[in.a].I&regs[in.b].I)
			case fOr:
				setI(&regs[in.dst], regs[in.a].I|regs[in.b].I)
			case fXor:
				setI(&regs[in.dst], regs[in.a].I^regs[in.b].I)
			case fShl:
				setI(&regs[in.dst], regs[in.a].I<<(uint64(regs[in.b].I)&63))
			case fShr:
				setI(&regs[in.dst], regs[in.a].I>>(uint64(regs[in.b].I)&63))
			case fNeg:
				setI(&regs[in.dst], -regs[in.a].I)
			case fNot:
				setI(&regs[in.dst], ^regs[in.a].I)

			case fCmpEQ:
				setI(&regs[in.dst], b2i(cmpValues(regs[in.a], regs[in.b]) == 0))
			case fCmpNE:
				setI(&regs[in.dst], b2i(cmpValues(regs[in.a], regs[in.b]) != 0))
			case fCmpLT:
				setI(&regs[in.dst], b2i(regs[in.a].I < regs[in.b].I))
			case fCmpLE:
				setI(&regs[in.dst], b2i(regs[in.a].I <= regs[in.b].I))
			case fCmpGT:
				setI(&regs[in.dst], b2i(regs[in.a].I > regs[in.b].I))
			case fCmpGE:
				setI(&regs[in.dst], b2i(regs[in.a].I >= regs[in.b].I))

			case fClassOf:
				o := regs[in.a].R
				if o == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "classof on null")
				}
				if o.Class != nil {
					setI(&regs[in.dst], int64(o.Class.ID))
				} else {
					setI(&regs[in.dst], -1)
				}
			case fNew:
				regs[in.dst] = RefVal(NewInstance(fb.blk.Instrs[in.pc].Class))
			case fGetField:
				o := regs[in.a].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "getfield on null or non-object")
				}
				set(&regs[in.dst], o.Fields[in.b])
			case fPutField:
				o := regs[in.b].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "putfield on null or non-object")
				}
				set(&o.Fields[in.dst], regs[in.a])
			case fNewArray:
				n := regs[in.a].I
				if n < 0 || n > 1<<28 {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, fmt.Sprintf("newarray with length %d", n))
				}
				regs[in.dst] = RefVal(NewArray(int(n)))
				// Charge a small per-element cost for zeroing.
				cycles += uint64(n) / 8
			case fALoad:
				a := regs[in.a].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "aload on null or non-array")
				}
				i := regs[in.b].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, fmt.Sprintf("aload index %d out of range [0,%d)", i, len(a.Elems)))
				}
				set(&regs[in.dst], a.Elems[i])
			case fAStore:
				a := regs[in.dst].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "astore on null or non-array")
				}
				i := regs[in.b].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, fmt.Sprintf("astore index %d out of range [0,%d)", i, len(a.Elems)))
				}
				set(&a.Elems[i], regs[in.a])
			case fALen:
				a := regs[in.a].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "alen on null or non-array")
				}
				setI(&regs[in.dst], int64(len(a.Elems)))

			case fIO:
				cycles += uint64(in.imm)
			case fPrint:
				v.output = append(v.output, regs[in.a].I)

			case fSpawn:
				sp := &fb.blk.Instrs[in.pc]
				m := sp.Method
				if len(sp.Args) != m.NumParams {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum,
						fmt.Sprintf("spawn %s with %d args, wants %d", m.FullName(), len(sp.Args), m.NumParams))
				}
				// newThread fires OnEnter; keep Now and f.Block exact.
				v.cycles = cycles + fb.prefix[int(in.pc)+1]
				store(&f.Block, fb.blk)
				nt := v.newThread(m)
				nr := nt.Frames[0].Regs
				for i, r := range sp.Args {
					set(&nr[i], regs[r])
				}
				v.stats.ThreadsSpawned++
				v.runq.push(nt)
				regs[in.dst] = RefVal(nt.handle)
			case fJoin:
				h := regs[in.a].R
				if h == nil || h.Thread == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "join on non-thread")
				}
				if h.Thread.State != StateDone {
					// Block at the join, which re-runs (charged again)
					// when the target finishes and wakes this thread.
					t.State = StateBlocked
					h.Thread.waiters = append(h.Thread.waiters, t)
					return v.fusedResched(f, fb, int(in.pc), int(in.pc), cycles, icount, quantum)
				}
				set(&regs[in.dst], h.Thread.Result)

			case fYieldWake:
				if now := cycles + fb.prefix[int(in.pc)+1]; v.due(EvYield, now) {
					v.wakeYield(t, f, fb, now)
				}
				fallthrough
			case fYield:
				v.stats.Yields++
				if v.cancelled() {
					return v.fusedCancel(f, fb, int(in.pc), cycles, icount, quantum)
				}
				quantum--
				if quantum <= 0 && v.runq.len() > 1 {
					return v.fusedResched(f, fb, int(in.pc), int(in.pc)+1, cycles, icount, quantum)
				}

			// The framework's own opcodes. cycles + prefix[pc+1] is the
			// count the reference dispatcher has at the probe or check;
			// the VM's counter holds it while a handler or hook runs,
			// and whatever the call adds is charged immediately.
			case fProbe:
				pre := fb.prefix[int(in.pc)+1]
				store(&f.Block, fb.blk)
				f.PC = int(in.pc)
				v.cycles = cycles + pre
				v.execProbe(t, f, fb.blk.Instrs[in.pc].Probe)
				cycles = v.cycles - pre
			case fCheckedProbe:
				// No-Duplication guard (Figure 6): a check wrapping a
				// single instrumentation operation.
				if v.cancelled() {
					return v.fusedCancel(f, fb, int(in.pc), cycles, icount, quantum)
				}
				cycles += uint64(v.cost.Check)
				v.stats.Checks++
				pre := fb.prefix[int(in.pc)+1]
				now := cycles + pre
				fired := v.trig.Poll(t.ID, now)
				if v.obs != nil {
					store(&f.Block, fb.blk)
					v.observeCheck(t, f, &fb.blk.Instrs[in.pc], fired, now)
				}
				if fired {
					v.stats.CheckFires++
					store(&f.Block, fb.blk)
					f.PC = int(in.pc)
					v.cycles = now
					v.execProbe(t, f, fb.blk.Instrs[in.pc].Probe)
					cycles = v.cycles - pre
				}

			case fJump:
				tgt = 0
				goto transfer
			case fBranch:
				tgt = 1
				if regs[in.a].I != 0 {
					tgt = 0
				}
				goto transfer
			case fCheck:
				if v.cancelled() {
					return v.fusedCancel(f, fb, int(in.pc), cycles, icount, quantum)
				}
				v.stats.Checks++
				// The check is the terminator: prefix[pc+1] is total.
				now := cycles + fb.total
				tgt = 1
				if v.trig.Poll(t.ID, now) {
					v.stats.CheckFires++
					v.stats.DupEntries++
					if v.cfg.IterBudget > 0 {
						f.IterBudget = v.cfg.IterBudget
					}
					tgt = 0
				}
				if v.obs != nil {
					store(&f.Block, fb.blk)
					v.observeCheck(t, f, &fb.blk.Instrs[in.pc], tgt == 0, now)
				}
				goto transfer
			case fLoopCheck:
				v.stats.LoopChecks++
				f.IterBudget--
				tgt = 1
				if f.IterBudget > 0 {
					tgt = 0
				}
				goto transfer

			// Frame switches leave the loop for runThread.
			case fCall:
				store(&f.Block, fb.blk)
				f.PC = int(in.pc)
				v.quantum = quantum
				return cycles + fb.prefix[int(in.pc)+1], icount + uint64(in.pc) + 1, exitCall, nil
			case fReturn:
				store(&f.Block, fb.blk)
				f.PC = int(in.pc)
				v.quantum = quantum
				return cycles + fb.total, icount + fb.count, exitReturn, nil

			// ---- superinstructions ----

			case fConstAdd:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], regs[in.d].I+regs[in.e].I)
			case fConstSub:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], regs[in.d].I-regs[in.e].I)
			case fConstMul:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], regs[in.d].I*regs[in.e].I)
			case fConstAnd:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], regs[in.d].I&regs[in.e].I)
			case fConstOr:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], regs[in.d].I|regs[in.e].I)
			case fConstXor:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], regs[in.d].I^regs[in.e].I)
			case fConstShl:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], regs[in.d].I<<(uint64(regs[in.e].I)&63))
			case fConstShr:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], regs[in.d].I>>(uint64(regs[in.e].I)&63))
			case fConstConst:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], in.imm2)
			case fConstCmpEQ:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], b2i(cmpValues(regs[in.d], regs[in.e]) == 0))
			case fConstCmpLT:
				setI(&regs[in.dst], in.imm)
				setI(&regs[in.c], b2i(regs[in.d].I < regs[in.e].I))

			case fAddConst:
				setI(&regs[in.dst], regs[in.a].I+regs[in.b].I)
				setI(&regs[in.c], in.imm2)
			case fMulConst:
				setI(&regs[in.dst], regs[in.a].I*regs[in.b].I)
				setI(&regs[in.c], in.imm2)
			case fAndConst:
				setI(&regs[in.dst], regs[in.a].I&regs[in.b].I)
				setI(&regs[in.c], in.imm2)
			case fXorConst:
				setI(&regs[in.dst], regs[in.a].I^regs[in.b].I)
				setI(&regs[in.c], in.imm2)
			case fShlConst:
				setI(&regs[in.dst], regs[in.a].I<<(uint64(regs[in.b].I)&63))
				setI(&regs[in.c], in.imm2)
			case fShrConst:
				setI(&regs[in.dst], regs[in.a].I>>(uint64(regs[in.b].I)&63))
				setI(&regs[in.c], in.imm2)

			case fShlXor:
				setI(&regs[in.dst], regs[in.a].I<<(uint64(regs[in.b].I)&63))
				setI(&regs[in.c], regs[in.d].I^regs[in.e].I)
			case fShrXor:
				setI(&regs[in.dst], regs[in.a].I>>(uint64(regs[in.b].I)&63))
				setI(&regs[in.c], regs[in.d].I^regs[in.e].I)
			case fXorShl:
				setI(&regs[in.dst], regs[in.a].I^regs[in.b].I)
				setI(&regs[in.c], regs[in.d].I<<(uint64(regs[in.e].I)&63))
			case fXorShr:
				setI(&regs[in.dst], regs[in.a].I^regs[in.b].I)
				setI(&regs[in.c], regs[in.d].I>>(uint64(regs[in.e].I)&63))
			case fMulXor:
				setI(&regs[in.dst], regs[in.a].I*regs[in.b].I)
				setI(&regs[in.c], regs[in.d].I^regs[in.e].I)
			case fMulAdd:
				setI(&regs[in.dst], regs[in.a].I*regs[in.b].I)
				setI(&regs[in.c], regs[in.d].I+regs[in.e].I)

			case fCmpEQBr:
				cond := cmpValues(regs[in.a], regs[in.b]) == 0
				setI(&regs[in.dst], b2i(cond))
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer
			case fCmpNEBr:
				cond := cmpValues(regs[in.a], regs[in.b]) != 0
				setI(&regs[in.dst], b2i(cond))
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer
			case fCmpLTBr:
				cond := regs[in.a].I < regs[in.b].I
				setI(&regs[in.dst], b2i(cond))
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer
			case fCmpLEBr:
				cond := regs[in.a].I <= regs[in.b].I
				setI(&regs[in.dst], b2i(cond))
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer
			case fCmpGTBr:
				cond := regs[in.a].I > regs[in.b].I
				setI(&regs[in.dst], b2i(cond))
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer
			case fCmpGEBr:
				cond := regs[in.a].I >= regs[in.b].I
				setI(&regs[in.dst], b2i(cond))
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer

			case fYieldJmpWake:
				if now := cycles + fb.prefix[int(in.pc)+1]; v.due(EvYield, now) {
					v.wakeYield(t, f, fb, now)
				}
				fallthrough
			case fYieldJmp:
				v.stats.Yields++
				if v.cancelled() {
					return v.fusedCancel(f, fb, int(in.pc), cycles, icount, quantum)
				}
				quantum--
				if quantum <= 0 && v.runq.len() > 1 {
					return v.fusedResched(f, fb, int(in.pc), int(in.pc)+1, cycles, icount, quantum)
				}
				tgt = 0
				goto transfer
			case fAddYieldJmpWake:
				if now := cycles + fb.prefix[int(in.pc)+2]; v.due(EvYield, now) {
					// The hook sees the add applied, as on the
					// reference dispatcher; restoring the destination
					// lets the fallthrough redo the add from the same
					// operands.
					old := regs[in.dst]
					setI(&regs[in.dst], regs[in.a].I+regs[in.b].I)
					v.wakeYield(t, f, fb, now)
					set(&regs[in.dst], old)
				}
				fallthrough
			case fAddYieldJmp:
				setI(&regs[in.dst], regs[in.a].I+regs[in.b].I)
				v.stats.Yields++
				if v.cancelled() {
					return v.fusedCancel(f, fb, int(in.pc)+1, cycles, icount, quantum)
				}
				quantum--
				if quantum <= 0 && v.runq.len() > 1 {
					return v.fusedResched(f, fb, int(in.pc)+1, int(in.pc)+2, cycles, icount, quantum)
				}
				tgt = 0
				goto transfer

			case fGetFieldConst:
				o := regs[in.a].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "getfield on null or non-object")
				}
				set(&regs[in.dst], o.Fields[in.b])
				setI(&regs[in.c], in.imm2)
			case fPutFieldGetField:
				o := regs[in.b].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "putfield on null or non-object")
				}
				set(&o.Fields[in.dst], regs[in.a])
				o2 := regs[in.d].R
				if o2 == nil || o2.Fields == nil {
					return v.fusedTrap(t, f, fb, int(in.pc)+1, cycles, icount, quantum, "getfield on null or non-object")
				}
				set(&regs[in.c], o2.Fields[in.e])
			case fALoadGetField:
				a := regs[in.a].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "aload on null or non-array")
				}
				i := regs[in.b].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, fmt.Sprintf("aload index %d out of range [0,%d)", i, len(a.Elems)))
				}
				set(&regs[in.dst], a.Elems[i])
				o := regs[in.d].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, fb, int(in.pc)+1, cycles, icount, quantum, "getfield on null or non-object")
				}
				set(&regs[in.c], o.Fields[in.e])
			case fALoadMul:
				a := regs[in.a].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "aload on null or non-array")
				}
				i := regs[in.b].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, fmt.Sprintf("aload index %d out of range [0,%d)", i, len(a.Elems)))
				}
				set(&regs[in.dst], a.Elems[i])
				setI(&regs[in.c], regs[in.d].I*regs[in.e].I)
			case fAddALoad:
				setI(&regs[in.dst], regs[in.a].I+regs[in.b].I)
				a := regs[in.d].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, fb, int(in.pc)+1, cycles, icount, quantum, "aload on null or non-array")
				}
				i := regs[in.e].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, fb, int(in.pc)+1, cycles, icount, quantum, fmt.Sprintf("aload index %d out of range [0,%d)", i, len(a.Elems)))
				}
				set(&regs[in.c], a.Elems[i])
			case fAddPutField:
				setI(&regs[in.dst], regs[in.a].I+regs[in.b].I)
				o := regs[in.e].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, fb, int(in.pc)+1, cycles, icount, quantum, "putfield on null or non-object")
				}
				set(&o.Fields[in.c], regs[in.d])
			case fAndPutField:
				setI(&regs[in.dst], regs[in.a].I&regs[in.b].I)
				o := regs[in.e].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, fb, int(in.pc)+1, cycles, icount, quantum, "putfield on null or non-object")
				}
				set(&o.Fields[in.c], regs[in.d])
			case fXorPutField:
				setI(&regs[in.dst], regs[in.a].I^regs[in.b].I)
				o := regs[in.e].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, fb, int(in.pc)+1, cycles, icount, quantum, "putfield on null or non-object")
				}
				set(&o.Fields[in.c], regs[in.d])
			case fAndAStore:
				setI(&regs[in.dst], regs[in.a].I&regs[in.b].I)
				a := regs[in.c].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, fb, int(in.pc)+1, cycles, icount, quantum, "astore on null or non-array")
				}
				i := regs[in.e].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, fb, int(in.pc)+1, cycles, icount, quantum, fmt.Sprintf("astore index %d out of range [0,%d)", i, len(a.Elems)))
				}
				set(&a.Elems[i], regs[in.d])
			case fAStoreJmp:
				a := regs[in.dst].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, "astore on null or non-array")
				}
				i := regs[in.b].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum, fmt.Sprintf("astore index %d out of range [0,%d)", i, len(a.Elems)))
				}
				set(&a.Elems[i], regs[in.a])
				tgt = 0
				goto transfer

			default:
				return v.fusedTrap(t, f, fb, int(in.pc), cycles, icount, quantum,
					fmt.Sprintf("fused dispatch: invalid token %d", in.tok))
			}
		}
		// Unreachable: fuseBlock always emits a terminator token last,
		// and every terminator jumps to transfer or returns.
		return v.fusedTrap(t, f, fb, 0, cycles, icount, quantum, "fused dispatch: stream without terminator")

	transfer:
		cycles += fb.total
		icount += fb.count
		nfb := fb.next[tgt]
		if nfb == nil {
			nfb = v.cutEdge(t, f, fb, tgt, cycles)
		}
		if fb.mask&(1<<uint(tgt)) != 0 {
			v.stats.Backedges++
		}
		// f.Block is left stale here, so a chained transfer stores no
		// pointer; every hook, handler, exit and trap sets it first.
		fb = nfb
		f.PC = 0
		if v.ic != nil {
			v.cycles = cycles
			v.touchCode(fb.blk)
			cycles = v.cycles
		}
		if cycles > limit {
			store(&f.Block, fb.blk)
			v.quantum = quantum
			return cycles, icount, exitSched, v.trapBudgetAt(t, cycles, icount)
		}
		fb.execs++
		code = fb.code
	}
}

// cutEdge delivers the transfer of fb's terminator to target tgt, a
// chain edge the observer must see (price), at cycle now, and returns
// the target's stream. The hook sees the source block, as on the
// reference dispatcher.
func (v *VM) cutEdge(t *Thread, f *Frame, fb *fusedBlock, tgt int, now uint64) *fusedBlock {
	v.cycles = now
	store(&f.Block, fb.blk)
	v.obs.OnTransfer(t, f, &fb.blk.Instrs[fb.count-1], tgt)
	v.rewake()
	return f.fuse[fb.targets[tgt].GID]
}

// wakeYield delivers a due OnYield from a fused yieldpoint in fb at its
// exact cycle now. The reference dispatcher counts the yield before its
// hook, so the hook sees it counted here too; the token's fallthrough
// body then counts it for real.
func (v *VM) wakeYield(t *Thread, f *Frame, fb *fusedBlock, now uint64) {
	v.cycles = now
	store(&f.Block, fb.blk)
	v.stats.Yields++
	v.obs.OnYield(t, f)
	v.stats.Yields--
	v.rewake()
}

// fusedResched is the scheduling exit of runFusedBlocks: it charges
// fb's block through original pc, flushes the counters and leaves the
// frame to resume at original pc resume of that block.
func (v *VM) fusedResched(f *Frame, fb *fusedBlock, pc, resume int, cycles, icount uint64, quantum int) (uint64, uint64, fusedExit, error) {
	cycles += fb.prefix[pc+1]
	icount += uint64(pc) + 1
	v.quantum = quantum
	store(&f.Block, fb.blk)
	f.PC = resume
	v.cycles, v.stats.Instrs = cycles, icount
	return cycles, icount, exitSched, nil
}

// fusedCancel is the cold cancellation exit of runFusedBlocks at the
// observation point (yieldpoint or check) at original pc, which stays
// the frame's resume pc.
func (v *VM) fusedCancel(f *Frame, fb *fusedBlock, pc int, cycles, icount uint64, quantum int) (uint64, uint64, fusedExit, error) {
	cycles, icount, _, _ = v.fusedResched(f, fb, pc, pc, cycles, icount, quantum)
	return cycles, icount, exitSched, &CancelError{Cycles: cycles}
}

// fusedTrap is the cold trap exit of runFusedBlocks: it reconstructs the
// exact per-instruction counters for the partially executed block,
// flushes them, and builds the trap at original pc.
func (v *VM) fusedTrap(t *Thread, f *Frame, fb *fusedBlock, pc int, cycles, icount uint64, quantum int, reason string) (uint64, uint64, fusedExit, error) {
	cycles, icount, _, _ = v.fusedResched(f, fb, pc, pc, cycles, icount, quantum)
	return cycles, icount, exitSched, v.trap(t, reason)
}
