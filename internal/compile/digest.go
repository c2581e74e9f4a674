package compile

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Digest hashes everything Compile decides: each method's header, each
// block's identity, kind and layout, every field of every instruction
// (targets by block ID, callees by name, probes by value), and the
// Result's counters. Equal digests mean the same compiled program;
// TestCompiledIRGolden pins the suite's, and a digest taken before and
// after runs shows that the runs left a shared program untouched.
func Digest(res *Result) [32]byte {
	var buf []byte
	num := func(xs ...int64) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	}
	str := func(s string) {
		num(int64(len(s)))
		buf = append(buf, s...)
	}
	num(res.Work, int64(res.CodeSize), int64(res.CheckingCodeSize),
		int64(res.DuplicatedCodeSize), int64(res.Yieldpoints))
	str(fmt.Sprintf("%+v", res.FrameworkStats))
	for _, m := range res.Prog.Methods() {
		str(m.FullName())
		str(m.Transformed)
		num(int64(m.ID), int64(m.NumParams), int64(m.NumRegs), int64(m.ProbeRegs),
			int64(m.CodeSize), int64(len(m.Blocks)))
		for _, b := range m.Blocks {
			num(int64(b.ID), int64(b.GID), int64(b.Kind), int64(b.Addr), int64(b.Size),
				int64(len(b.Instrs)))
			for i := range b.Instrs {
				in := &b.Instrs[i]
				num(int64(in.Op), int64(in.BackedgeMask), int64(in.Dst), int64(in.A),
					int64(in.B), in.Imm, int64(len(in.Targets)))
				for _, t := range in.Targets {
					num(int64(t.ID))
				}
				if in.Class != nil {
					str(in.Class.Name)
				} else {
					str("")
				}
				if in.Method != nil {
					str(in.Method.FullName())
				} else {
					str("")
				}
				str(in.Name)
				num(int64(len(in.Args)))
				for _, r := range in.Args {
					num(int64(r))
				}
				if p := in.Probe; p != nil {
					num(1, int64(p.Owner), int64(p.Kind), int64(p.ID), int64(p.Reg), p.Imm,
						int64(p.Cost))
				} else {
					num(0)
				}
			}
		}
	}
	return sha256.Sum256(buf)
}
