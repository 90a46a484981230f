package asm

import (
	"strings"
	"testing"

	"specvec/internal/emu"
)

// FuzzAssemble feeds arbitrary source to the assembler, which reads
// outside files (sdvsim -asm): it must never panic, a rejection must be
// one "asm: " line, and every program it accepts must validate and load
// into the emulator. Seeds are the test programs of this package;
// crashers found so far are checked in under testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	for _, src := range []string{sumProgram, fwdProgram, floatsProgram, allMnemonicsProgram, aliasProgram} {
		f.Add(src)
	}
	for _, c := range errorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			if msg := err.Error(); !strings.HasPrefix(msg, "asm: ") || strings.Contains(msg, "\n") {
				t.Fatalf("rejection is not one asm line: %q", msg)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails validation: %v", err)
		}
		if _, err := emu.New(p); err != nil {
			t.Fatalf("accepted program does not load: %v", err)
		}
	})
}
