package emu

import (
	"fmt"

	"specvec/internal/isa"
)

// DynInst is one dynamic instance of a static instruction, as executed by
// the functional core.
type DynInst struct {
	Seq      uint64   // 0-based dynamic instruction number
	PC       uint64   // instruction index
	Inst     isa.Inst // the static instruction
	NextPC   uint64   // instruction index of the next dynamic instruction
	Taken    bool     // branch outcome (conditional branches only)
	EffAddr  uint64   // effective address (memory ops only)
	StoreVal uint64   // value stored (stores only)
	Result   uint64   // destination register value (raw bits)
	Src1Val  uint64   // value of Rs1 at execution (raw bits)
	Src2Val  uint64   // value of Rs2 at execution (raw bits)
	Halt     bool     // program terminated at this instruction
}

// Record is the part of one dynamic instruction that the timing model
// reads: its place in the stream, the static instruction, the branch
// outcome and the operand values Project keeps. Machine.Next and the
// trace readers serve Records; Step's DynInst stays the architectural
// oracle that tests compare against.
type Record struct {
	Seq   uint64    // 0-based dynamic instruction number
	PC    uint64    // instruction index
	Inst  isa.Inst  // the static instruction
	Vals  [2]uint64 // operand values the timing model reads (see Project)
	Taken bool      // branch outcome (conditional branches only)
	Halt  bool      // program terminated at this instruction
}

// Project returns the Record of d. Its Vals hold:
//   - loads and stores: EffAddr (stride detection in the Table of Loads,
//     the memory hierarchy and store-conflict checks);
//   - arithmetic: the source values that Inst.SrcRegs names (the
//     scalar-operand check that validates a vector instance);
//   - jr: Src1Val (its successor PC);
//
// and zero in every word nothing reads. StoreVal and Result are never
// kept.
func Project(d *DynInst) (r Record) {
	r.project(d)
	return r
}

// project sets r to Project(d) in place: the one projection body, which
// Next runs on every step. It writes field by field: assigned as one
// composite literal, r is copied in 8+16+16+16-byte stores that split
// Inst, and a reader's next load of Inst cannot be served from the
// store buffer until both stores retire.
//
//sdv:hotpath
func (r *Record) project(d *DynInst) {
	r.Seq, r.PC, r.Inst, r.Vals = d.Seq, d.PC, d.Inst, [2]uint64{}
	r.Taken, r.Halt = d.Taken, d.Halt
	in := d.Inst
	switch {
	case in.IsMem():
		r.Vals[0] = d.EffAddr
	case in.IsArith():
		switch _, n := in.SrcRegs(); n {
		case 1:
			r.Vals[0] = d.Src1Val
		case 2:
			r.Vals = [2]uint64{d.Src1Val, d.Src2Val}
		}
	case in.Op == isa.OpJr:
		r.Vals[0] = d.Src1Val
	}
}

// EffAddr returns a memory op's effective address. For any other
// instruction it returns Vals[0], which is not an address: callers ask
// only of loads and stores, and the LSQ's store walk asks per store, so
// the method does not re-check the opcode.
func (r *Record) EffAddr() uint64 { return r.Vals[0] }

// NextPC returns the instruction index of the next dynamic instruction.
// Trace readers derive every PC but a block's first with it.
//
//sdv:hotpath
func (r *Record) NextPC() uint64 { return SuccessorPC(r.Inst, r.PC, r.Vals[0], r.Taken) }

// ErrLimit is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrLimit = fmt.Errorf("emu: instruction limit reached")

// Machine holds architectural state: PC, 64 logical registers and memory.
type Machine struct {
	prog *isa.Program
	pc   uint64
	regs [isa.NumLogicalRegs]uint64
	mem  *Memory
	seq  uint64
	halt bool
}

// New loads prog into a fresh machine.
func New(prog *isa.Program) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("emu: invalid program %q: %w", prog.Name, err)
	}
	m := &Machine{prog: prog, pc: prog.Entry, mem: NewMemory()}
	for _, seg := range prog.Segments {
		m.mem.WriteBytes(seg.Addr, seg.Data)
	}
	// Conventional ABI: r30 is the stack pointer.
	m.regs[30] = isa.StackBase
	return m, nil
}

// Mem exposes the machine's memory (examples and tests inspect results).
func (m *Machine) Mem() *Memory { return m.mem }

// Halted reports whether the program has executed a halt.
func (m *Machine) Halted() bool { return m.halt }

// InstCount returns the number of instructions executed so far.
func (m *Machine) InstCount() uint64 { return m.seq }

// Reg returns the raw bits of a logical register.
func (m *Machine) Reg(r isa.Reg) uint64 {
	if r.IsZero() {
		return 0
	}
	return m.regs[r]
}

// SetReg sets the raw bits of a logical register (tests and loaders).
func (m *Machine) SetReg(r isa.Reg, v uint64) {
	if !r.IsZero() {
		m.regs[r] = v
	}
}

// IntReg returns an integer register as a signed value.
func (m *Machine) IntReg(i int) int64 { return int64(m.Reg(isa.IntReg(i))) }

// FPReg returns a floating-point register as a double.
func (m *Machine) FPReg(i int) float64 { return isa.FloatFromBits(m.Reg(isa.FPReg(i))) }

// Step executes one instruction and returns its dynamic record.
// Executing on a halted machine returns further halt records.
func (m *Machine) Step() (d DynInst) {
	m.step(&d)
	return d
}

// step executes one instruction into d, so that Next projects it without
// copying the DynInst out of Step.
func (m *Machine) step(d *DynInst) {
	in := m.prog.Inst(m.pc)
	*d = DynInst{Seq: m.seq, PC: m.pc, Inst: in, NextPC: m.pc + 1}
	m.seq++

	s1 := m.Reg(in.Rs1)
	s2 := m.Reg(in.Rs2)
	d.Src1Val, d.Src2Val = s1, s2

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		d.Halt = true
		d.NextPC = m.pc
		m.halt = true

	case isa.OpLd, isa.OpLdf:
		d.EffAddr = s1 + uint64(in.Imm)
		d.Result = m.mem.Read64(d.EffAddr)
		m.write(in.Rd, d.Result)
	case isa.OpSt, isa.OpStf:
		d.EffAddr = s1 + uint64(in.Imm)
		d.StoreVal = s2
		m.mem.Write64(d.EffAddr, s2)

	case isa.OpAdd:
		d.Result = s1 + s2
		m.write(in.Rd, d.Result)
	case isa.OpSub:
		d.Result = s1 - s2
		m.write(in.Rd, d.Result)
	case isa.OpMul:
		d.Result = uint64(int64(s1) * int64(s2))
		m.write(in.Rd, d.Result)
	case isa.OpDiv:
		d.Result = uint64(safeDiv(int64(s1), int64(s2)))
		m.write(in.Rd, d.Result)
	case isa.OpRem:
		d.Result = uint64(safeRem(int64(s1), int64(s2)))
		m.write(in.Rd, d.Result)
	case isa.OpAnd:
		d.Result = s1 & s2
		m.write(in.Rd, d.Result)
	case isa.OpOr:
		d.Result = s1 | s2
		m.write(in.Rd, d.Result)
	case isa.OpXor:
		d.Result = s1 ^ s2
		m.write(in.Rd, d.Result)
	case isa.OpSll:
		d.Result = s1 << (s2 & 63)
		m.write(in.Rd, d.Result)
	case isa.OpSrl:
		d.Result = s1 >> (s2 & 63)
		m.write(in.Rd, d.Result)
	case isa.OpSra:
		d.Result = uint64(int64(s1) >> (s2 & 63))
		m.write(in.Rd, d.Result)
	case isa.OpSlt:
		d.Result = boolWord(int64(s1) < int64(s2))
		m.write(in.Rd, d.Result)
	case isa.OpSltu:
		d.Result = boolWord(s1 < s2)
		m.write(in.Rd, d.Result)

	case isa.OpAddi:
		d.Result = s1 + uint64(in.Imm)
		m.write(in.Rd, d.Result)
	case isa.OpAndi:
		d.Result = s1 & uint64(in.Imm)
		m.write(in.Rd, d.Result)
	case isa.OpOri:
		d.Result = s1 | uint64(in.Imm)
		m.write(in.Rd, d.Result)
	case isa.OpXori:
		d.Result = s1 ^ uint64(in.Imm)
		m.write(in.Rd, d.Result)
	case isa.OpSlli:
		d.Result = s1 << (uint64(in.Imm) & 63)
		m.write(in.Rd, d.Result)
	case isa.OpSrli:
		d.Result = s1 >> (uint64(in.Imm) & 63)
		m.write(in.Rd, d.Result)
	case isa.OpSrai:
		d.Result = uint64(int64(s1) >> (uint64(in.Imm) & 63))
		m.write(in.Rd, d.Result)
	case isa.OpSlti:
		d.Result = boolWord(int64(s1) < in.Imm)
		m.write(in.Rd, d.Result)
	case isa.OpLi:
		d.Result = uint64(in.Imm)
		m.write(in.Rd, d.Result)

	case isa.OpFadd:
		d.Result = fop(s1, s2, func(a, b float64) float64 { return a + b })
		m.write(in.Rd, d.Result)
	case isa.OpFsub:
		d.Result = fop(s1, s2, func(a, b float64) float64 { return a - b })
		m.write(in.Rd, d.Result)
	case isa.OpFmul:
		d.Result = fop(s1, s2, func(a, b float64) float64 { return a * b })
		m.write(in.Rd, d.Result)
	case isa.OpFdiv:
		d.Result = fop(s1, s2, func(a, b float64) float64 { return a / b })
		m.write(in.Rd, d.Result)
	case isa.OpFneg:
		d.Result = isa.FloatBits(-isa.FloatFromBits(s1))
		m.write(in.Rd, d.Result)
	case isa.OpFabs:
		f := isa.FloatFromBits(s1)
		if f < 0 {
			f = -f
		}
		d.Result = isa.FloatBits(f)
		m.write(in.Rd, d.Result)
	case isa.OpFmov:
		d.Result = s1
		m.write(in.Rd, d.Result)
	case isa.OpFcvtIF:
		d.Result = isa.FloatBits(float64(int64(s1)))
		m.write(in.Rd, d.Result)
	case isa.OpFcvtFI:
		d.Result = uint64(int64(isa.FloatFromBits(s1)))
		m.write(in.Rd, d.Result)
	case isa.OpFlt:
		d.Result = boolWord(isa.FloatFromBits(s1) < isa.FloatFromBits(s2))
		m.write(in.Rd, d.Result)
	case isa.OpFle:
		d.Result = boolWord(isa.FloatFromBits(s1) <= isa.FloatFromBits(s2))
		m.write(in.Rd, d.Result)
	case isa.OpFeq:
		d.Result = boolWord(isa.FloatFromBits(s1) == isa.FloatFromBits(s2))
		m.write(in.Rd, d.Result)

	case isa.OpBeq:
		d.Taken = s1 == s2
	case isa.OpBne:
		d.Taken = s1 != s2
	case isa.OpBlt:
		d.Taken = int64(s1) < int64(s2)
	case isa.OpBge:
		d.Taken = int64(s1) >= int64(s2)
	case isa.OpBltu:
		d.Taken = s1 < s2
	case isa.OpBgeu:
		d.Taken = s1 >= s2

	case isa.OpJ:
		d.NextPC = uint64(in.Imm)
	case isa.OpJal:
		d.Result = m.pc + 1
		m.write(in.Rd, d.Result)
		d.NextPC = uint64(in.Imm)
	case isa.OpJr:
		d.NextPC = s1 + uint64(in.Imm)

	default:
		// Unknown opcodes halt: the assembler/builder cannot produce them.
		d.Halt = true
		m.halt = true
	}

	if in.IsBranch() && d.Taken {
		d.NextPC = uint64(in.Imm)
	}
	m.pc = d.NextPC
}

// SuccessorPC returns the PC following one dynamic execution of in at pc,
// given the instruction's first source value and (for conditional
// branches) its outcome — the same rules Step applies: a halt re-executes
// in place, direct jumps use the immediate, register-indirect jumps use
// rs1+imm, taken branches use the immediate, and everything else (unknown
// opcodes included) falls through. It exists so that a Record can
// re-derive NextPC instead of storing it; Step and this function are kept
// in lockstep by TestSuccessorPCMatchesStep.
func SuccessorPC(in isa.Inst, pc, s1 uint64, taken bool) uint64 {
	switch in.Op {
	case isa.OpHalt:
		return pc
	case isa.OpJ, isa.OpJal:
		return uint64(in.Imm)
	case isa.OpJr:
		return s1 + uint64(in.Imm)
	}
	if taken && in.IsBranch() {
		return uint64(in.Imm)
	}
	return pc + 1
}

// Next executes one instruction and writes its projection into r, as the
// forward-only live source of the timing pipeline: it reports false,
// leaving r untouched, once the halt record has been produced.
//
//sdv:hotpath
func (m *Machine) Next(r *Record) bool {
	if m.halt {
		return false
	}
	var d DynInst
	m.step(&d)
	r.project(&d)
	return true
}

// Run executes until halt or until limit instructions have run. It returns
// the number executed and ErrLimit if the budget was exhausted first.
func (m *Machine) Run(limit uint64) (uint64, error) {
	var n uint64
	for !m.halt && n < limit {
		m.Step()
		n++
	}
	if !m.halt {
		return n, ErrLimit
	}
	return n, nil
}

func (m *Machine) write(r isa.Reg, v uint64) {
	if r.IsZero() {
		return
	}
	m.regs[r] = v
}

func safeDiv(a, b int64) int64 {
	if b == 0 {
		return -1 // matches common RISC semantics for div-by-zero
	}
	if a == -1<<63 && b == -1 {
		return a // overflow wraps
	}
	return a / b
}

func safeRem(a, b int64) int64 {
	if b == 0 {
		return a
	}
	if a == -1<<63 && b == -1 {
		return 0
	}
	return a % b
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func fop(a, b uint64, f func(float64, float64) float64) uint64 {
	return isa.FloatBits(f(isa.FloatFromBits(a), isa.FloatFromBits(b)))
}
