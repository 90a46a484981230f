package asm

import (
	"strings"
	"testing"

	"specvec/internal/emu"
	"specvec/internal/isa"
)

const sumProgram = `
        .data
arr:    .word 1, 2, 3, 4, 5      ; five values
        .text
main:   li    r1, arr
        li    r2, 0              ; i
        li    r3, 5              ; n
        li    r4, 0              ; sum
loop:   slli  r5, r2, 3
        add   r6, r1, r5
        ld    r7, 0(r6)
        add   r4, r4, r7
        addi  r2, r2, 1
        blt   r2, r3, loop
        halt
`

func TestAssembleAndRun(t *testing.T) {
	p, err := Assemble("sum", sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	m, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := m.IntReg(4); got != 15 {
		t.Errorf("sum = %d, want 15", got)
	}
}

const fwdProgram = `
        .text
        li   r1, later
        ld   r2, 0(r1)
        halt
        .data
later:  .word 77
`

func TestForwardDataReference(t *testing.T) {
	p, err := Assemble("fwd", fwdProgram)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := emu.New(p)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := m.IntReg(2); got != 77 {
		t.Errorf("r2 = %d, want 77", got)
	}
}

const floatsProgram = `
        .data
vals:   .float 2.5, -0.5
buf:    .space 16
        .text
        li   r1, vals
        li   r2, buf
        ldf  f1, 0(r1)
        ldf  f2, 8(r1)
        fmul f3, f1, f2
        stf  f3, 8(r2)
        halt
`

func TestFloatsAndSpace(t *testing.T) {
	p, err := Assemble("f", floatsProgram)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := emu.New(p)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	got := m.Mem().ReadFloat(p.DataSyms["buf"] + 8)
	if got != -1.25 {
		t.Errorf("buf[1] = %v, want -1.25", got)
	}
}

const allMnemonicsProgram = `
        .data
d:      .word 0
        .text
        nop
        ld   r1, 0(r2)
        ldf  f1, 8(r2)
        st   r1, 0(r2)
        stf  f1, -8(r2)
        add  r1, r2, r3
        sub  r1, r2, r3
        mul  r1, r2, r3
        div  r1, r2, r3
        rem  r1, r2, r3
        and  r1, r2, r3
        or   r1, r2, r3
        xor  r1, r2, r3
        sll  r1, r2, r3
        srl  r1, r2, r3
        sra  r1, r2, r3
        slt  r1, r2, r3
        sltu r1, r2, r3
        addi r1, r2, 10
        andi r1, r2, 0xff
        ori  r1, r2, 1
        xori r1, r2, -1
        slli r1, r2, 3
        srli r1, r2, 3
        srai r1, r2, 3
        slti r1, r2, 5
        li   r1, 'x'
        fadd f1, f2, f3
        fsub f1, f2, f3
        fmul f1, f2, f3
        fdiv f1, f2, f3
        fneg f1, f2
        fabs f1, f2
        fmov f1, f2
        fcvt.if f1, r2
        fcvt.fi r1, f2
        flt  r1, f2, f3
        fle  r1, f2, f3
        feq  r1, f2, f3
target: beq  r1, r2, target
        bne  r1, r2, target
        blt  r1, r2, target
        bge  r1, r2, target
        bltu r1, r2, target
        bgeu r1, r2, target
        j    target
        jal  r31, target
        jr   r31
        jr   r31, 4
        halt
`

func TestAllMnemonicsAssemble(t *testing.T) {
	p, err := Assemble("all", allMnemonicsProgram)
	if err != nil {
		t.Fatal(err)
	}
	// One instruction per non-blank, non-directive line.
	if len(p.Insts) != 50 {
		t.Errorf("assembled %d instructions, want 50", len(p.Insts))
	}
}

// errorCases are sources Assemble must reject, each with a fragment of
// its one-line error.
var errorCases = []struct {
	name, src, want string
}{
	{"unknown-mnemonic", "frob r1, r2", "unknown mnemonic"},
	{"bad-register", "add r1, r99, r2", "out of range"},
	{"bad-mem", "ld r1, 8[r2]", "bad memory operand"},
	{"missing-operand", "add r1, r2", "needs 3 operands"},
	{"undefined-branch", "beq r1, r2, nowhere", "undefined label"},
	{"inst-in-data", ".data\nadd r1, r2, r3", "in .data section"},
	{"unknown-directive", ".bss", "unknown directive"},
	{"bad-float", ".data\nx: .float 1.5, zap", "bad float"},
	{"bad-space", ".data\nx: .space -1", "bad .space"},
	{"huge-space", ".data\nx: .space 4611686018427387904\n.text\nhalt\n", "line 2: static data exceeds"},
	{"data-limit", ".data\nx: .space 16777216\ny: .word 1\n", "line 3: static data exceeds"},
	{"dup-label", "x: nop\nx: nop", "duplicate label"},
	{"word-in-text", ".word 5", "outside .data"},
	{"bad-li", "li r1, nosuchdata", "unknown immediate"},
}

func TestErrors(t *testing.T) {
	for _, c := range errorCases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble("bad", c.src)
			if err == nil {
				t.Fatalf("assembled successfully, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want substring %q", err, c.want)
			}
		})
	}
}

func TestErrorLineNumbers(t *testing.T) {
	_, err := Assemble("bad", "nop\nnop\nfrob r1\n")
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if aerr.Line != 3 {
		t.Errorf("error line = %d, want 3", aerr.Line)
	}
}

const aliasProgram = `
        .data
a:
b:      .word 42
        .text
        li r1, a
        li r2, b
        halt
`

func TestMultipleLabelsOneBlock(t *testing.T) {
	p, err := Assemble("alias", aliasProgram)
	if err != nil {
		t.Fatal(err)
	}
	if p.DataSyms["a"] != p.DataSyms["b"] {
		t.Errorf("aliased labels differ: a=%#x b=%#x", p.DataSyms["a"], p.DataSyms["b"])
	}
}

func TestCharLiteral(t *testing.T) {
	p, err := Assemble("ch", "li r1, 'A'\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Imm != 65 {
		t.Errorf("imm = %d, want 65", p.Insts[0].Imm)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	p, err := Assemble("sum", sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(p)
	for _, want := range []string{"main:", "loop:", "ld r7, 0(r6)", "blt r2, r3, @4"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

// TestAssembleStringRoundTrip re-assembles every instruction's String()
// rendering (with label targets patched) and checks the decoded form
// matches — a weak but broad encoder/decoder consistency check.
func TestAssembleStringRoundTrip(t *testing.T) {
	p, err := Assemble("sum", sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range p.Insts {
		s := in.String()
		if strings.Contains(s, "@") {
			continue // branch targets render as @N, not a label
		}
		src := ".text\n" + s + "\n"
		p2, err := Assemble("rt", src)
		if err != nil {
			t.Errorf("re-assembling %q: %v", s, err)
			continue
		}
		if p2.Insts[0] != in {
			t.Errorf("round trip %q: got %+v, want %+v", s, p2.Insts[0], in)
		}
	}
}

func TestEmptyProgram(t *testing.T) {
	p, err := Assemble("empty", "; just a comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 0 {
		t.Errorf("insts = %d, want 0", len(p.Insts))
	}
	m, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Step() // off-the-end fetch is a halt
	if !m.Halted() {
		t.Error("empty program did not halt")
	}
}

var _ = isa.OpNop // keep isa imported for future table additions
