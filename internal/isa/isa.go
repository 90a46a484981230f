package isa

import "fmt"

// Machine layout constants shared by the emulator, caches and pipeline.
const (
	// WordBytes is the size of one data element (the paper uses 64-bit
	// vector register elements).
	WordBytes = 8
	// InstBytes is the encoded size of one instruction; with 64-byte
	// I-cache lines this yields 8 instructions per line.
	InstBytes = 8
	// TextBase is the byte address of instruction index 0.
	TextBase = 0x0040_0000
	// DataBase is the conventional start of static data segments.
	DataBase = 0x1000_0000
	// HeapBase is the conventional start of generated heap structures.
	HeapBase = 0x2000_0000
	// StackBase is the conventional top of the downward-growing stack.
	StackBase = 0x7fff_0000
)

// NumIntRegs and NumFPRegs give the architectural register file sizes.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	// NumLogicalRegs is the total logical register name space (integer
	// registers first, then floating point).
	NumLogicalRegs = NumIntRegs + NumFPRegs
)

// Reg names an architectural register. Values 0..31 are integer registers
// r0..r31 (r0 is hard-wired to zero); values 32..63 are floating-point
// registers f0..f31.
type Reg uint8

// IntReg returns the integer register ri.
func IntReg(i int) Reg { return Reg(i) }

// FPReg returns the floating-point register fi.
func FPReg(i int) Reg { return Reg(NumIntRegs + i) }

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= NumIntRegs }

// IsZero reports whether r is the hard-wired zero register r0.
func (r Reg) IsZero() bool { return r == 0 }

// Index returns the register number within its class (0..31).
func (r Reg) Index() int {
	if r.IsFP() {
		return int(r) - NumIntRegs
	}
	return int(r)
}

// String renders the conventional assembly name (r7, f3).
func (r Reg) String() string {
	if r.IsFP() {
		return fmt.Sprintf("f%d", r.Index())
	}
	return fmt.Sprintf("r%d", r.Index())
}

// Op enumerates the instruction opcodes.
type Op uint8

// Opcode space. The groups matter to the rest of the simulator: loads fire
// the vectorizer, arithmetic propagates vectorization, stores run the
// memory-coherence range check, branches drive the predictor and GMRBB.
const (
	OpNop Op = iota

	// Memory.
	OpLd  // ld  rd, imm(rs1)   : rd <- mem64[rs1+imm]
	OpLdf // ldf fd, imm(rs1)   : fd <- mem64[rs1+imm] (FP view)
	OpSt  // st  rs2, imm(rs1)  : mem64[rs1+imm] <- rs2
	OpStf // stf fs2, imm(rs1)  : mem64[rs1+imm] <- fs2

	// Integer register-register arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt
	OpSltu

	// Integer register-immediate arithmetic.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpLi // li rd, imm : rd <- imm (full 64-bit immediate)

	// Floating point.
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFneg
	OpFabs
	OpFmov
	OpFcvtIF // fcvt.if fd, rs1 : fd <- float64(int64 rs1)
	OpFcvtFI // fcvt.fi rd, fs1 : rd <- int64(float64 fs1)
	OpFlt    // flt rd, fs1, fs2 : rd <- fs1 < fs2
	OpFle    // fle rd, fs1, fs2 : rd <- fs1 <= fs2
	OpFeq    // feq rd, fs1, fs2 : rd <- fs1 == fs2

	// Control transfer. Branch/jump immediates are absolute instruction
	// indices (the assembler resolves labels).
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpJ   // j target
	OpJal // jal rd, target : rd <- return index
	OpJr  // jr rs1, imm    : pc <- rs1 + imm (register indirect)

	OpHalt

	opCount
)

var opNames = [...]string{
	OpNop: "nop",
	OpLd:  "ld", OpLdf: "ldf", OpSt: "st", OpStf: "stf",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra", OpSlt: "slt", OpSltu: "sltu",
	OpAddi: "addi", OpAndi: "andi", OpOri: "ori", OpXori: "xori",
	OpSlli: "slli", OpSrli: "srli", OpSrai: "srai", OpSlti: "slti", OpLi: "li",
	OpFadd: "fadd", OpFsub: "fsub", OpFmul: "fmul", OpFdiv: "fdiv",
	OpFneg: "fneg", OpFabs: "fabs", OpFmov: "fmov",
	OpFcvtIF: "fcvt.if", OpFcvtFI: "fcvt.fi",
	OpFlt: "flt", OpFle: "fle", OpFeq: "feq",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBltu: "bltu", OpBgeu: "bgeu",
	OpJ: "j", OpJal: "jal", OpJr: "jr",
	OpHalt: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NumOps is the number of defined opcodes (useful for table sizing).
const NumOps = int(opCount)

// Inst is one decoded instruction. Fields that an opcode does not use are
// zero; use the accessor predicates rather than switching on Op directly
// where possible.
type Inst struct {
	Op  Op
	Rd  Reg   // destination register (if WritesReg)
	Rs1 Reg   // first source register
	Rs2 Reg   // second source register (or store data register)
	Imm int64 // immediate / displacement / branch target index
}

// IsLoad reports whether the instruction reads data memory.
func (i Inst) IsLoad() bool { return i.Op == OpLd || i.Op == OpLdf }

// IsStore reports whether the instruction writes data memory.
func (i Inst) IsStore() bool { return i.Op == OpSt || i.Op == OpStf }

// IsMem reports whether the instruction accesses data memory.
func (i Inst) IsMem() bool { return i.IsLoad() || i.IsStore() }

// IsBranch reports whether the instruction is a conditional branch.
func (i Inst) IsBranch() bool { return i.Op >= OpBeq && i.Op <= OpBgeu }

// IsJump reports whether the instruction is an unconditional transfer.
func (i Inst) IsJump() bool { return i.Op == OpJ || i.Op == OpJal || i.Op == OpJr }

// IsControl reports whether the instruction may redirect fetch.
func (i Inst) IsControl() bool { return i.IsBranch() || i.IsJump() || i.Op == OpHalt }

// IsArith reports whether the instruction is a register-computing ALU/FPU
// operation — the class that the dynamic vectorizer may convert into vector
// instances when a source operand is vectorized (§3.2 of the paper).
func (i Inst) IsArith() bool {
	switch {
	case i.Op >= OpAdd && i.Op <= OpLi:
		return true
	case i.Op >= OpFadd && i.Op <= OpFeq:
		return true
	}
	return false
}

// WritesReg reports whether the instruction produces a register result.
func (i Inst) WritesReg() bool {
	switch {
	case i.IsStore(), i.IsBranch(), i.Op == OpJ, i.Op == OpJr,
		i.Op == OpNop, i.Op == OpHalt:
		return false
	}
	// Writes to the zero register are architecturally discarded.
	return !i.Rd.IsZero() || i.Rd.IsFP()
}

// SrcRegs returns the source registers read by the instruction and how many
// of them are meaningful (0, 1 or 2).
func (i Inst) SrcRegs() (srcs [2]Reg, n int) {
	switch i.Op {
	case OpNop, OpHalt, OpJ, OpJal, OpLi:
		return srcs, 0
	case OpLd, OpLdf, OpJr:
		srcs[0] = i.Rs1
		return srcs, 1
	case OpSt, OpStf:
		srcs[0] = i.Rs1
		srcs[1] = i.Rs2
		return srcs, 2
	case OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpSrai, OpSlti,
		OpFneg, OpFabs, OpFmov, OpFcvtIF, OpFcvtFI:
		srcs[0] = i.Rs1
		return srcs, 1
	default:
		srcs[0] = i.Rs1
		srcs[1] = i.Rs2
		return srcs, 2
	}
}

// HasImmOperand reports whether the instruction combines a register source
// with an immediate (relevant to vectorization: such instructions vectorize
// like vector×scalar operations whose scalar is constant, so no VRMT value
// check is needed).
func (i Inst) HasImmOperand() bool {
	switch i.Op {
	case OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpSrai, OpSlti:
		return true
	}
	return false
}

// String disassembles the instruction.
func (i Inst) String() string {
	switch {
	case i.Op == OpNop || i.Op == OpHalt:
		return i.Op.String()
	case i.IsLoad():
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
	case i.IsStore():
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case i.Op == OpLi:
		return fmt.Sprintf("li %s, %d", i.Rd, i.Imm)
	case i.HasImmOperand():
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case i.IsBranch():
		return fmt.Sprintf("%s %s, %s, @%d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case i.Op == OpJ:
		return fmt.Sprintf("j @%d", i.Imm)
	case i.Op == OpJal:
		return fmt.Sprintf("jal %s, @%d", i.Rd, i.Imm)
	case i.Op == OpJr:
		return fmt.Sprintf("jr %s, %d", i.Rs1, i.Imm)
	case i.Op == OpFneg || i.Op == OpFabs || i.Op == OpFmov ||
		i.Op == OpFcvtIF || i.Op == OpFcvtFI:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

// PCToByte converts an instruction index to its I-cache byte address.
func PCToByte(pc uint64) uint64 { return TextBase + pc*InstBytes }

// ByteToPC converts an I-cache byte address back to an instruction index.
func ByteToPC(addr uint64) uint64 { return (addr - TextBase) / InstBytes }
