package vm

import (
	"fmt"

	"instrsample/internal/ir"
)

// Fused streams: the fast path's block-granular tier.
//
// The fast dispatcher runs every block one of two ways. Blocks that
// spawn or join run per instruction in runThread. Every other block
// (fusible: computation, calls, yieldpoints, probes and sample checks,
// ending in a jump, branch, check, loop check or return) is translated
// once per VM into a fused stream and run by runFusedBlocks, which
// removes two per-instruction costs:
//
//   - cost accounting: the whole block's cycle cost and instruction
//     count are charged at the terminator from precomputed prefix sums,
//     which also reconstruct the exact per-instruction counters wherever
//     something can read them (trap, yieldpoint, probe, check, call,
//     cancellation);
//   - dispatch: a peephole pass matches the hot opcode pairs/triples
//     observed in the benchmark suite (const+ALU, ALU+ALU,
//     compare+branch, field/array pairs, and the add+yield+jmp loop
//     latch) and rewrites the block into a stream of fixed-width fused
//     instructions (fInstr), one dispatch per superinstruction.
//
// Calls and returns (runFused): a call or return token ends the fused
// segment. The token charges the block prefix up to and including
// itself and leaves runFusedBlocks, whose loop therefore never switches
// frames; the trampoline runFused pushes or pops the frame through the
// same call and ret paths per-instruction dispatch uses, then re-enters
// the callee's entry stream or the caller's stream at the token after
// the call. A stream entered at original pc p starts with its counters
// lowered by prefix[p] and p, so every prefix-sum reconstruction below
// stays exact mid-block; resume maps each pc to the token starting
// there (a call is always a single base token, so pc+1 always starts
// one).
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
//     the count per-instruction dispatch has there, with f.PC = P at a
//     probe. Its own costs (the check, the probe's payload cost) are
//     charged immediately, like OpIO's, so they commute with the
//     deferred block charge;
//   - a call at original pc P leaves with f.PC = P and the counters at
//     cycles + prefix[P+1], as per-instruction dispatch has them when
//     it pushes the frame.
//
// A fusible block whose operands do not fit the compact encoding gets
// no stream (fuse[gid] == nil) and runs per instruction, like every
// block that spawns or joins, and so does a frame whose method runs at
// a cost scale other than 1.
//
// Observers (DESIGN.md §7.6): one whose event mask has EvTransfer —
// every observer that declares no mask — disables fusion entirely, since
// a fused chain hides its intra-chain transfers. Any other observer
// keeps fused streams, with two changes that a nil observer never pays
// for: the yieldpoint tokens are swapped for wake variants (fYieldWake
// and friends) that deliver OnYield when the observer's deadline is due,
// at the exact cycle per-instruction dispatch would report, and a chain
// ends at every checking↔duplicated edge, so leaveFused delivers that
// sampling-episode boundary. The probe and check tokens need no
// variants: like per-instruction dispatch they test the observer once
// per probe or check, and the call and ret paths deliver OnEnter and
// OnExit for both tiers. Results are bit-identical either way.

// fuseTok is a dense fused-opcode token. Base tokens execute exactly one
// original instruction; fused tokens execute two or three.
type fuseTok uint8

const (
	fuseInvalid fuseTok = iota

	// Base tokens, one per fusible opcode.
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
	// fCall serves OpCall and OpCallVirt: runFused reads the callee,
	// receiver and arguments from the original instruction.
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
//	const            dst=Dst                  imm=Imm
//	move/neg/not/…   dst=Dst a=A
//	binop/cmp/aload  dst=Dst a=A   b=B
//	astore           dst=array(Dst) a=val(A) b=idx(B)
//	getfield         dst=Dst a=obj(A) b=field slot
//	putfield         dst=field slot a=src(A) b=obj(B)
//	branch           a=A
//	io               imm=Imm
//	probe/check/…    (none)
//	call/return      (none)
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

// fusedBlock is the fused stream for one fusible block.
type fusedBlock struct {
	code []fInstr
	// total is the summed cycle cost of the whole block at cost scale
	// 1; count is len(Instrs); prefix[i] is the summed cycle cost of
	// Instrs[:i], so prefix[count] == total. targets/mask cache the
	// terminator's Targets slice and BackedgeMask (a fusible block has
	// exactly one terminator, so they are exit-invariant): steady-state
	// fused execution touches only this struct, never the 112-byte
	// original instructions, except for OpNew's class and a probe.
	total   uint64
	count   uint64
	prefix  []uint64
	targets []*ir.Block
	// next[i] is targets[i]'s fused stream (nil when that block runs
	// per instruction), precomputed so a fused->fused transfer is one
	// pointer load instead of a side-table lookup.
	next []*fusedBlock
	mask uint8
	// resume[p] is the index of the token that starts at original pc
	// p, or noResume when p lies inside a superinstruction: where a
	// return or a rescheduled thread may re-enter the stream.
	resume []uint16
	// execs counts fused-tier entries into this block at its first
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
// execution counts. Instrs is exact: every instruction retired on a
// fused stream counts once, whether its block was entered at the top
// or resumed mid-way after a call or a reschedule. BlockRuns,
// Dispatches, Fused and ByKind stay entry-granular: a fused block
// counts in full when the fused loop enters it at its first
// instruction, including the rare runs that then stop early through a
// trap or cancellation, and a mid-block resume (after a call returns
// or a reschedule) counts nothing. Fusion statistics
// are deliberately kept out of Stats, which is compared bit-for-bit
// between dispatchers (and the reference never fuses).
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
	// is the fused-dispatch fraction of the fused tier; Instrs/
	// Stats.Instrs is the fused tier's share of the whole run.
	BlockRuns  uint64
	Dispatches uint64
	Instrs     uint64
	Fused      uint64
	// ByKind counts dynamic superinstruction executions per kind name
	// (see superNames).
	ByKind map[string]uint64
}

// FusionStats returns the fusion coverage accumulated so far. The
// result is never nil-mapped; with fusion disabled all fields are zero.
func (v *VM) FusionStats() FusionStats {
	fs := FusionStats{ByKind: make(map[string]uint64), Instrs: v.fusedInstrs}
	for _, fb := range v.fuse {
		if fb == nil {
			continue
		}
		fs.FusedBlocks++
		fs.Supers += int(fb.supers)
		fs.Covered += int(fb.covered)
		runs := fb.execs
		if runs == 0 {
			continue
		}
		fs.BlockRuns += runs
		fs.Dispatches += runs * uint64(len(fb.code))
		fs.Fused += runs * uint64(fb.covered)
		for _, kc := range fb.kinds {
			fs.ByKind[superNames[kc.tok]] += runs * uint64(kc.n)
		}
	}
	return fs
}

// buildFusion computes the GID-indexed fused-stream table v.fuse under
// the VM's cost model. Called once per VM, lazily from Run.
//
// A program mutated after its last Seal can carry stale or colliding
// GIDs. The table must never charge one block with another block's
// costs, so GIDs are validated first (in-range and collision-free); on
// any violation no block is fused, which keeps the whole run on the
// always-correct per-instruction path. An observer whose mask has
// EvTransfer must see every block transfer, which fused chains would
// hide, so it also leaves the table empty; the per-instruction dispatch
// then emits a hook at each transfer (the Observer cost contract). Any
// other observer gets wake yieldpoint tokens and chains cut at
// sampling-episode boundaries.
func (v *VM) buildFusion() {
	size := v.prog.NumBlocks()
	valid := true
	for _, m := range v.prog.Methods() {
		for _, b := range m.Blocks {
			if b.GID < 0 {
				valid = false
			} else if b.GID >= size {
				valid = false
				size = b.GID + 1
			}
		}
	}
	v.fuse = make([]*fusedBlock, size)
	if valid {
		seen := make([]bool, size)
		for _, m := range v.prog.Methods() {
			for _, b := range m.Blocks {
				if seen[b.GID] {
					valid = false
				}
				seen[b.GID] = true
			}
		}
	}
	if !valid || v.evMask&EvTransfer != 0 {
		return
	}
	for _, m := range v.prog.Methods() {
		for _, b := range m.Blocks {
			if !fusible(b) {
				continue
			}
			fb := fuseBlock(b)
			if fb == nil {
				continue
			}
			fb.prefix = make([]uint64, len(b.Instrs)+1)
			for i := range b.Instrs {
				fb.prefix[i+1] = fb.prefix[i] + uint64(v.costTab[b.Instrs[i].Op])
			}
			fb.count = uint64(len(b.Instrs))
			fb.total = fb.prefix[fb.count]
			term := &b.Instrs[len(b.Instrs)-1]
			fb.targets, fb.mask = term.Targets, term.BackedgeMask
			if v.obs != nil {
				for i := range fb.code {
					if w, ok := wakeToks[fb.code[i].tok]; ok {
						fb.code[i].tok = w
					}
				}
			}
			v.fuse[b.GID] = fb
		}
	}
	// Second pass: wire fused->fused successor pointers (all streams
	// exist now). Under an observer a chain never crosses a
	// sampling-episode boundary, so leaveFused can deliver it.
	for _, m := range v.prog.Methods() {
		for _, b := range m.Blocks {
			fb := v.fuse[b.GID]
			if fb == nil {
				continue
			}
			fb.next = make([]*fusedBlock, len(fb.targets))
			for i, tb := range fb.targets {
				if v.obs == nil || !episodeEdge(b, tb) {
					fb.next[i] = v.fuse[tb.GID]
				}
			}
		}
	}
}

// fusible reports whether b may run as a fused stream: it ends in its
// only terminator, a jump, branch, check, loop check or return, and it
// neither spawns nor joins a thread. Every other opcode has a base
// token; fuseBlock rejects one that does not.
func fusible(b *ir.Block) bool {
	if !wellFormed(b) {
		return false
	}
	for i := range b.Instrs {
		if op := b.Instrs[i].Op; op == ir.OpSpawn || op == ir.OpJoin {
			return false
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

// fuseBlock translates one fusible block into a fused stream, greedily
// matching superinstructions left to right (triples before pairs). It
// returns nil when any operand overflows the compact fInstr encoding;
// the block then runs per instruction.
func fuseBlock(b *ir.Block) *fusedBlock {
	ins := b.Instrs
	if len(ins) > 0xFFFF {
		return nil
	}
	fb := &fusedBlock{resume: make([]uint16, len(ins))}
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
	for tok, n := range kinds {
		fb.kinds = append(fb.kinds, kindCount{tok, n})
	}
	return fb
}

// noResume marks a resume entry inside a superinstruction. Token
// indices stay below it because a stream covers at most 0xFFFF
// instructions.
const noResume = 0xFFFF

// baseToks maps each fusible opcode to its base token; fuseInvalid
// marks opcodes the fused tier cannot represent.
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
	case ir.OpConst:
		s1, ok = reg16(in.Dst)
		return s1, 0, 0, ok
	case ir.OpMove, ir.OpNeg, ir.OpNot, ir.OpClassOf, ir.OpNew,
		ir.OpNewArray, ir.OpArrayLen:
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

// fusedExit says how runFusedBlocks left its loop. The frame switches
// runFused handles come last.
type fusedExit uint8

const (
	// exitInstr: continue per instruction at f.Block/f.PC.
	exitInstr fusedExit = iota
	// exitSched: runThread returns (true, nil).
	exitSched
	// exitCall: the call at f.PC is charged; runFused pushes its frame.
	exitCall
	// exitReturn: the return at f.PC is charged; runFused pops f.
	exitReturn
)

// runFused runs fused code in frame f from token ti of its block's
// stream fb (cost scale 1) until it has to leave the fused tier. It is
// the trampoline around runFusedBlocks: at a call token it pushes the
// callee's frame and continues in the callee's entry stream, and at a
// return token it pops f and continues in the caller's stream at the
// token after the call, each through the path per-instruction dispatch
// uses (call, ret). It returns the updated local counters plus how the
// caller should proceed: err != nil means trap or cancellation
// (counters already flushed), sched means runThread should return
// (true, nil) (counters already flushed), and otherwise dispatch
// continues per instruction at the top frame's Block and PC.
func (v *VM) runFused(t *Thread, f *Frame, fb *fusedBlock, ti int, cycles, icount uint64) (uint64, uint64, bool, error) {
	start := icount
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
		if err != nil || exit < exitCall {
			break
		}
		in := &f.Block.Instrs[f.PC]
		if exit == exitCall {
			if f, cycles, err = v.call(t, f, in, cycles, icount); err != nil {
				break
			}
		} else if f, cycles = v.ret(t, f, in, cycles, icount); f == nil {
			exit = exitSched
			break
		} else {
			f.PC++ // step past the call
		}
		if fb = v.fuse[f.Block.GID]; fb == nil || f.costScale != 1 {
			exit = exitInstr
			break
		}
		ti = int(fb.resume[f.PC])
	}
	v.fusedInstrs += icount - start
	return cycles, icount, exit == exitSched, err
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
				regs[in.dst] = Value{I: in.imm}
			case fMove:
				regs[in.dst] = regs[in.a]

			case fAdd:
				regs[in.dst] = Value{I: regs[in.a].I + regs[in.b].I}
			case fSub:
				regs[in.dst] = Value{I: regs[in.a].I - regs[in.b].I}
			case fMul:
				regs[in.dst] = Value{I: regs[in.a].I * regs[in.b].I}
			case fDiv:
				d := regs[in.b].I
				if d == 0 {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "division by zero")
				}
				regs[in.dst] = Value{I: regs[in.a].I / d}
			case fRem:
				d := regs[in.b].I
				if d == 0 {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "remainder by zero")
				}
				regs[in.dst] = Value{I: regs[in.a].I % d}
			case fAnd:
				regs[in.dst] = Value{I: regs[in.a].I & regs[in.b].I}
			case fOr:
				regs[in.dst] = Value{I: regs[in.a].I | regs[in.b].I}
			case fXor:
				regs[in.dst] = Value{I: regs[in.a].I ^ regs[in.b].I}
			case fShl:
				regs[in.dst] = Value{I: regs[in.a].I << (uint64(regs[in.b].I) & 63)}
			case fShr:
				regs[in.dst] = Value{I: regs[in.a].I >> (uint64(regs[in.b].I) & 63)}
			case fNeg:
				regs[in.dst] = Value{I: -regs[in.a].I}
			case fNot:
				regs[in.dst] = Value{I: ^regs[in.a].I}

			case fCmpEQ:
				regs[in.dst] = boolVal(cmpValues(regs[in.a], regs[in.b]) == 0)
			case fCmpNE:
				regs[in.dst] = boolVal(cmpValues(regs[in.a], regs[in.b]) != 0)
			case fCmpLT:
				regs[in.dst] = boolVal(regs[in.a].I < regs[in.b].I)
			case fCmpLE:
				regs[in.dst] = boolVal(regs[in.a].I <= regs[in.b].I)
			case fCmpGT:
				regs[in.dst] = boolVal(regs[in.a].I > regs[in.b].I)
			case fCmpGE:
				regs[in.dst] = boolVal(regs[in.a].I >= regs[in.b].I)

			case fClassOf:
				o := regs[in.a].R
				if o == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "classof on null")
				}
				if o.Class != nil {
					regs[in.dst] = Value{I: int64(o.Class.ID)}
				} else {
					regs[in.dst] = Value{I: -1}
				}
			case fNew:
				regs[in.dst] = RefVal(NewInstance(f.Block.Instrs[in.pc].Class))
			case fGetField:
				o := regs[in.a].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "getfield on null or non-object")
				}
				regs[in.dst] = o.Fields[in.b]
			case fPutField:
				o := regs[in.b].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "putfield on null or non-object")
				}
				o.Fields[in.dst] = regs[in.a]
			case fNewArray:
				n := regs[in.a].I
				if n < 0 || n > 1<<28 {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, fmt.Sprintf("newarray with length %d", n))
				}
				regs[in.dst] = RefVal(NewArray(int(n)))
				// Charge a small per-element cost for zeroing.
				cycles += uint64(n) / 8
			case fALoad:
				a := regs[in.a].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "aload on null or non-array")
				}
				i := regs[in.b].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, fmt.Sprintf("aload index %d out of range [0,%d)", i, len(a.Elems)))
				}
				regs[in.dst] = a.Elems[i]
			case fAStore:
				a := regs[in.dst].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "astore on null or non-array")
				}
				i := regs[in.b].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, fmt.Sprintf("astore index %d out of range [0,%d)", i, len(a.Elems)))
				}
				a.Elems[i] = regs[in.a]
			case fALen:
				a := regs[in.a].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "alen on null or non-array")
				}
				regs[in.dst] = Value{I: int64(len(a.Elems))}

			case fIO:
				cycles += uint64(in.imm)
			case fPrint:
				v.output = append(v.output, regs[in.a].I)

			case fYieldWake:
				if now := cycles + fb.prefix[int(in.pc)+1]; v.due(EvYield, now) {
					v.wakeYield(t, f, now)
				}
				fallthrough
			case fYield:
				v.stats.Yields++
				if v.cancelled() {
					return v.fusedCancel(f, int(in.pc), fb.prefix, cycles, icount, quantum)
				}
				quantum--
				if quantum <= 0 && v.runq.len() > 1 {
					f.PC = int(in.pc) + 1
					cycles += fb.prefix[int(in.pc)+1]
					icount += uint64(in.pc) + 1
					v.quantum = quantum
					v.cycles, v.stats.Instrs = cycles, icount
					return cycles, icount, exitSched, nil
				}

			// The framework's own opcodes. cycles + prefix[pc+1] is the
			// count per-instruction dispatch has at the probe or check;
			// the VM's counter holds it while a handler or hook runs,
			// and whatever the call adds is charged immediately.
			case fProbe:
				pre := fb.prefix[int(in.pc)+1]
				f.PC = int(in.pc)
				v.cycles = cycles + pre
				v.execProbe(t, f, f.Block.Instrs[in.pc].Probe)
				cycles = v.cycles - pre
			case fCheckedProbe:
				// No-Duplication guard (Figure 6), as in runThread.
				if v.cancelled() {
					return v.fusedCancel(f, int(in.pc), fb.prefix, cycles, icount, quantum)
				}
				cycles += uint64(v.cost.Check)
				v.stats.Checks++
				pre := fb.prefix[int(in.pc)+1]
				now := cycles + pre
				fired := v.trig.Poll(t.ID, now)
				if v.obs != nil {
					v.observeCheck(t, f, &f.Block.Instrs[in.pc], fired, now)
				}
				if fired {
					v.stats.CheckFires++
					f.PC = int(in.pc)
					v.cycles = now
					v.execProbe(t, f, f.Block.Instrs[in.pc].Probe)
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
					return v.fusedCancel(f, int(in.pc), fb.prefix, cycles, icount, quantum)
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
					v.observeCheck(t, f, &f.Block.Instrs[in.pc], tgt == 0, now)
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

			// Frame switches leave the loop for runFused.
			case fCall:
				f.PC = int(in.pc)
				v.quantum = quantum
				return cycles + fb.prefix[int(in.pc)+1], icount + uint64(in.pc) + 1, exitCall, nil
			case fReturn:
				f.PC = int(in.pc)
				v.quantum = quantum
				return cycles + fb.total, icount + fb.count, exitReturn, nil

			// ---- superinstructions ----

			case fConstAdd:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = Value{I: regs[in.d].I + regs[in.e].I}
			case fConstSub:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = Value{I: regs[in.d].I - regs[in.e].I}
			case fConstMul:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = Value{I: regs[in.d].I * regs[in.e].I}
			case fConstAnd:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = Value{I: regs[in.d].I & regs[in.e].I}
			case fConstOr:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = Value{I: regs[in.d].I | regs[in.e].I}
			case fConstXor:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = Value{I: regs[in.d].I ^ regs[in.e].I}
			case fConstShl:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = Value{I: regs[in.d].I << (uint64(regs[in.e].I) & 63)}
			case fConstShr:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = Value{I: regs[in.d].I >> (uint64(regs[in.e].I) & 63)}
			case fConstConst:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = Value{I: in.imm2}
			case fConstCmpEQ:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = boolVal(cmpValues(regs[in.d], regs[in.e]) == 0)
			case fConstCmpLT:
				regs[in.dst] = Value{I: in.imm}
				regs[in.c] = boolVal(regs[in.d].I < regs[in.e].I)

			case fAddConst:
				regs[in.dst] = Value{I: regs[in.a].I + regs[in.b].I}
				regs[in.c] = Value{I: in.imm2}
			case fMulConst:
				regs[in.dst] = Value{I: regs[in.a].I * regs[in.b].I}
				regs[in.c] = Value{I: in.imm2}
			case fAndConst:
				regs[in.dst] = Value{I: regs[in.a].I & regs[in.b].I}
				regs[in.c] = Value{I: in.imm2}
			case fXorConst:
				regs[in.dst] = Value{I: regs[in.a].I ^ regs[in.b].I}
				regs[in.c] = Value{I: in.imm2}
			case fShlConst:
				regs[in.dst] = Value{I: regs[in.a].I << (uint64(regs[in.b].I) & 63)}
				regs[in.c] = Value{I: in.imm2}
			case fShrConst:
				regs[in.dst] = Value{I: regs[in.a].I >> (uint64(regs[in.b].I) & 63)}
				regs[in.c] = Value{I: in.imm2}

			case fShlXor:
				regs[in.dst] = Value{I: regs[in.a].I << (uint64(regs[in.b].I) & 63)}
				regs[in.c] = Value{I: regs[in.d].I ^ regs[in.e].I}
			case fShrXor:
				regs[in.dst] = Value{I: regs[in.a].I >> (uint64(regs[in.b].I) & 63)}
				regs[in.c] = Value{I: regs[in.d].I ^ regs[in.e].I}
			case fXorShl:
				regs[in.dst] = Value{I: regs[in.a].I ^ regs[in.b].I}
				regs[in.c] = Value{I: regs[in.d].I << (uint64(regs[in.e].I) & 63)}
			case fXorShr:
				regs[in.dst] = Value{I: regs[in.a].I ^ regs[in.b].I}
				regs[in.c] = Value{I: regs[in.d].I >> (uint64(regs[in.e].I) & 63)}
			case fMulXor:
				regs[in.dst] = Value{I: regs[in.a].I * regs[in.b].I}
				regs[in.c] = Value{I: regs[in.d].I ^ regs[in.e].I}
			case fMulAdd:
				regs[in.dst] = Value{I: regs[in.a].I * regs[in.b].I}
				regs[in.c] = Value{I: regs[in.d].I + regs[in.e].I}

			case fCmpEQBr:
				cond := cmpValues(regs[in.a], regs[in.b]) == 0
				regs[in.dst] = boolVal(cond)
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer
			case fCmpNEBr:
				cond := cmpValues(regs[in.a], regs[in.b]) != 0
				regs[in.dst] = boolVal(cond)
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer
			case fCmpLTBr:
				cond := regs[in.a].I < regs[in.b].I
				regs[in.dst] = boolVal(cond)
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer
			case fCmpLEBr:
				cond := regs[in.a].I <= regs[in.b].I
				regs[in.dst] = boolVal(cond)
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer
			case fCmpGTBr:
				cond := regs[in.a].I > regs[in.b].I
				regs[in.dst] = boolVal(cond)
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer
			case fCmpGEBr:
				cond := regs[in.a].I >= regs[in.b].I
				regs[in.dst] = boolVal(cond)
				tgt = 1
				if cond {
					tgt = 0
				}
				goto transfer

			case fYieldJmpWake:
				if now := cycles + fb.prefix[int(in.pc)+1]; v.due(EvYield, now) {
					v.wakeYield(t, f, now)
				}
				fallthrough
			case fYieldJmp:
				v.stats.Yields++
				if v.cancelled() {
					return v.fusedCancel(f, int(in.pc), fb.prefix, cycles, icount, quantum)
				}
				quantum--
				if quantum <= 0 && v.runq.len() > 1 {
					f.PC = int(in.pc) + 1
					cycles += fb.prefix[int(in.pc)+1]
					icount += uint64(in.pc) + 1
					v.quantum = quantum
					v.cycles, v.stats.Instrs = cycles, icount
					return cycles, icount, exitSched, nil
				}
				tgt = 0
				goto transfer
			case fAddYieldJmpWake:
				if now := cycles + fb.prefix[int(in.pc)+2]; v.due(EvYield, now) {
					// The hook sees the add applied, as under
					// per-instruction dispatch; restoring the destination
					// lets the fallthrough redo the add from the same
					// operands.
					old := regs[in.dst]
					regs[in.dst] = Value{I: regs[in.a].I + regs[in.b].I}
					v.wakeYield(t, f, now)
					regs[in.dst] = old
				}
				fallthrough
			case fAddYieldJmp:
				regs[in.dst] = Value{I: regs[in.a].I + regs[in.b].I}
				v.stats.Yields++
				if v.cancelled() {
					return v.fusedCancel(f, int(in.pc)+1, fb.prefix, cycles, icount, quantum)
				}
				quantum--
				if quantum <= 0 && v.runq.len() > 1 {
					f.PC = int(in.pc) + 2
					cycles += fb.prefix[int(in.pc)+2]
					icount += uint64(in.pc) + 2
					v.quantum = quantum
					v.cycles, v.stats.Instrs = cycles, icount
					return cycles, icount, exitSched, nil
				}
				tgt = 0
				goto transfer

			case fGetFieldConst:
				o := regs[in.a].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "getfield on null or non-object")
				}
				regs[in.dst] = o.Fields[in.b]
				regs[in.c] = Value{I: in.imm2}
			case fPutFieldGetField:
				o := regs[in.b].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "putfield on null or non-object")
				}
				o.Fields[in.dst] = regs[in.a]
				o2 := regs[in.d].R
				if o2 == nil || o2.Fields == nil {
					return v.fusedTrap(t, f, int(in.pc)+1, fb.prefix, cycles, icount, quantum, "getfield on null or non-object")
				}
				regs[in.c] = o2.Fields[in.e]
			case fALoadGetField:
				a := regs[in.a].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "aload on null or non-array")
				}
				i := regs[in.b].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, fmt.Sprintf("aload index %d out of range [0,%d)", i, len(a.Elems)))
				}
				regs[in.dst] = a.Elems[i]
				o := regs[in.d].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, int(in.pc)+1, fb.prefix, cycles, icount, quantum, "getfield on null or non-object")
				}
				regs[in.c] = o.Fields[in.e]
			case fALoadMul:
				a := regs[in.a].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "aload on null or non-array")
				}
				i := regs[in.b].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, fmt.Sprintf("aload index %d out of range [0,%d)", i, len(a.Elems)))
				}
				regs[in.dst] = a.Elems[i]
				regs[in.c] = Value{I: regs[in.d].I * regs[in.e].I}
			case fAddALoad:
				regs[in.dst] = Value{I: regs[in.a].I + regs[in.b].I}
				a := regs[in.d].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, int(in.pc)+1, fb.prefix, cycles, icount, quantum, "aload on null or non-array")
				}
				i := regs[in.e].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, int(in.pc)+1, fb.prefix, cycles, icount, quantum, fmt.Sprintf("aload index %d out of range [0,%d)", i, len(a.Elems)))
				}
				regs[in.c] = a.Elems[i]
			case fAddPutField:
				regs[in.dst] = Value{I: regs[in.a].I + regs[in.b].I}
				o := regs[in.e].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, int(in.pc)+1, fb.prefix, cycles, icount, quantum, "putfield on null or non-object")
				}
				o.Fields[in.c] = regs[in.d]
			case fAndPutField:
				regs[in.dst] = Value{I: regs[in.a].I & regs[in.b].I}
				o := regs[in.e].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, int(in.pc)+1, fb.prefix, cycles, icount, quantum, "putfield on null or non-object")
				}
				o.Fields[in.c] = regs[in.d]
			case fXorPutField:
				regs[in.dst] = Value{I: regs[in.a].I ^ regs[in.b].I}
				o := regs[in.e].R
				if o == nil || o.Fields == nil {
					return v.fusedTrap(t, f, int(in.pc)+1, fb.prefix, cycles, icount, quantum, "putfield on null or non-object")
				}
				o.Fields[in.c] = regs[in.d]
			case fAndAStore:
				regs[in.dst] = Value{I: regs[in.a].I & regs[in.b].I}
				a := regs[in.c].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, int(in.pc)+1, fb.prefix, cycles, icount, quantum, "astore on null or non-array")
				}
				i := regs[in.e].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, int(in.pc)+1, fb.prefix, cycles, icount, quantum, fmt.Sprintf("astore index %d out of range [0,%d)", i, len(a.Elems)))
				}
				a.Elems[i] = regs[in.d]
			case fAStoreJmp:
				a := regs[in.dst].R
				if a == nil || a.Elems == nil {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, "astore on null or non-array")
				}
				i := regs[in.b].I
				if i < 0 || i >= int64(len(a.Elems)) {
					return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum, fmt.Sprintf("astore index %d out of range [0,%d)", i, len(a.Elems)))
				}
				a.Elems[i] = regs[in.a]
				tgt = 0
				goto transfer

			default:
				return v.fusedTrap(t, f, int(in.pc), fb.prefix, cycles, icount, quantum,
					fmt.Sprintf("fused dispatch: invalid token %d", in.tok))
			}
		}
		// Unreachable: fuseBlock always emits a terminator token last,
		// and every terminator jumps to transfer or returns.
		return v.fusedTrap(t, f, 0, fb.prefix, cycles, icount, quantum, "fused dispatch: stream without terminator")

	transfer:
		cycles += fb.total
		icount += fb.count
		nfb := fb.next[tgt]
		if nfb == nil {
			v.quantum = quantum
			return v.leaveFused(t, f, tgt, cycles, icount)
		}
		if fb.mask&(1<<uint(tgt)) != 0 {
			v.stats.Backedges++
		}
		b := fb.targets[tgt]
		f.Block, f.PC = b, 0
		if v.ic != nil {
			v.cycles = cycles
			v.touchCode(b)
			cycles = v.cycles
		}
		if cycles > limit {
			v.quantum = quantum
			return cycles, icount, exitInstr, v.trapBudgetAt(t, cycles, icount)
		}
		fb = nfb
		fb.execs++
		code = fb.code
	}
}

// leaveFused is the cold chain exit of runFusedBlocks: fb's terminator
// transfers to target tgt, which has no stream or, under an observer,
// lies across a sampling-episode boundary. It performs the transfer the
// way per-instruction dispatch does — the OnTransfer hook sees the source
// block — and returns runFusedBlocks' results.
func (v *VM) leaveFused(t *Thread, f *Frame, tgt int, cycles, icount uint64) (uint64, uint64, fusedExit, error) {
	cycles, err := v.transfer(t, f, &f.Block.Instrs[len(f.Block.Instrs)-1], tgt, cycles, icount)
	return cycles, icount, exitInstr, err
}

// wakeYield delivers a due OnYield from a fused yieldpoint at its exact
// cycle now. Per-instruction dispatch counts the yield before its hook,
// so the hook sees it counted here too; the token's fallthrough body
// then counts it for real.
func (v *VM) wakeYield(t *Thread, f *Frame, now uint64) {
	v.cycles = now
	v.stats.Yields++
	v.obs.OnYield(t, f)
	v.stats.Yields--
	v.rewake()
}

// fusedCancel is the cold cancellation exit of runFusedBlocks at the
// observation point (yieldpoint or check) at original pc, which stays
// the frame's resume pc.
func (v *VM) fusedCancel(f *Frame, pc int, prefix []uint64, cycles, icount uint64, quantum int) (uint64, uint64, fusedExit, error) {
	cycles += prefix[pc+1]
	icount += uint64(pc) + 1
	v.quantum = quantum
	f.PC = pc
	return cycles, icount, exitInstr, v.stopCancelled(cycles, icount)
}

// fusedTrap is the cold trap exit of runFusedBlocks: it reconstructs the
// exact per-instruction counters for the partially executed block,
// flushes everything the per-instruction path keeps current, and builds
// the trap.
func (v *VM) fusedTrap(t *Thread, f *Frame, pc int, prefix []uint64, cycles, icount uint64, quantum int, reason string) (uint64, uint64, fusedExit, error) {
	cycles += prefix[pc+1]
	icount += uint64(pc) + 1
	v.quantum = quantum
	f.PC = pc
	v.cycles, v.stats.Instrs = cycles, icount
	return cycles, icount, exitInstr, v.trap(t, reason)
}
