package emu

import (
	"testing"

	"specvec/internal/isa"
)

// TestSuccessorPCMatchesStep pins Machine.Next to Step for every opcode,
// both branch outcomes, register-indirect jumps and running off the end
// of the text: two machines in the same state run to their halt, one
// through Next and one through Step, and every Record must be Project of
// the parallel DynInst, with the NextPC it derives (and, for a memory op,
// the EffAddr) equal to Step's. Records re-derive NextPC with
// SuccessorPC, so the two must never drift.
func TestSuccessorPCMatchesStep(t *testing.T) {
	type run struct {
		prog *isa.Program
		r1   uint64 // with r2 = 1: r1 = 1 takes equal-style branches, r1 = 0 less-than-style
	}
	var runs []run
	for op := 0; op < isa.NumOps; op++ {
		in := isa.Inst{
			Op:  isa.Op(op),
			Rd:  isa.IntReg(3),
			Rs1: isa.IntReg(1),
			Rs2: isa.IntReg(2),
			Imm: 1, // a valid control target in a 2-instruction program
		}
		prog := &isa.Program{Name: in.Op.String(), Insts: []isa.Inst{in, {Op: isa.OpHalt}}}
		runs = append(runs, run{prog, 1}, run{prog, 0})
	}
	// A register-indirect jump to an off-text target, and the off-the-end
	// halt the machine synthesizes there.
	runs = append(runs, run{prog: &isa.Program{Name: "jr", Insts: []isa.Inst{
		{Op: isa.OpLi, Rd: isa.IntReg(1), Imm: 100},
		{Op: isa.OpJr, Rs1: isa.IntReg(1), Imm: 7},
	}}})

	for _, c := range runs {
		var pair [2]*Machine
		for i := range pair {
			m, err := New(c.prog)
			if err != nil {
				t.Fatalf("%s: %v", c.prog.Name, err)
			}
			m.SetReg(isa.IntReg(1), c.r1)
			m.SetReg(isa.IntReg(2), 1)
			pair[i] = m
		}
		next, step := pair[0], pair[1]
		var r Record
		for next.Next(&r) {
			d := step.Step()
			if want := Project(&d); r != want {
				t.Errorf("%s: Next = %+v, Project(Step) = %+v", c.prog.Name, r, want)
			}
			if r.NextPC() != d.NextPC || d.Inst.IsMem() && r.EffAddr() != d.EffAddr {
				t.Errorf("%s (%v at pc %d): NextPC %d, EffAddr %#x; Step has %d, %#x",
					c.prog.Name, d.Inst.Op, d.PC, r.NextPC(), r.EffAddr(), d.NextPC, d.EffAddr)
			}
		}
		if !step.Halted() || step.InstCount() != next.InstCount() {
			t.Errorf("%s: Next stopped after %d records, Step ran %d (halted %v)",
				c.prog.Name, next.InstCount(), step.InstCount(), step.Halted())
		}
	}
}
