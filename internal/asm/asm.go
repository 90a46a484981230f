package asm

import (
	"fmt"
	"strconv"
	"strings"

	"specvec/internal/isa"
)

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
)

type assembler struct {
	b    *isa.Builder
	sec  section
	line int

	// Data labels must be usable before their definition (forward refs in
	// li), so assembly is two-pass: pass 1 lays out data, pass 2 emits code.
	dataOnly bool

	// pendingData holds labels seen in .data that bind to the next
	// data directive.
	pendingData []string

	dataBytes int // static data declared so far (pass 1)
}

// maxDataBytes bounds the static data one source may declare, .word,
// .float and .space together: far above any hand-written kernel, and
// small enough that an outside file cannot make the assembler (or the
// emulator loading its program) allocate without limit.
const maxDataBytes = 1 << 24

// Assemble parses source and returns the program.
func Assemble(name, source string) (*isa.Program, error) {
	b := isa.NewBuilder(name)

	// Pass 1: data directives only, so code can reference any data label.
	p1 := &assembler{b: b, dataOnly: true}
	if err := p1.run(source); err != nil {
		return nil, err
	}
	// Pass 2: code only.
	p2 := &assembler{b: b}
	if err := p2.run(source); err != nil {
		return nil, err
	}
	prog, err := b.Build()
	if err != nil {
		return nil, &Error{Line: 0, Msg: err.Error()}
	}
	return prog, nil
}

func (a *assembler) run(source string) error {
	a.sec = secText
	for i, raw := range strings.Split(source, "\n") {
		a.line = i + 1
		if err := a.statement(raw); err != nil {
			return err
		}
		if a.b.Err() != nil {
			return &Error{Line: a.line, Msg: a.b.Err().Error()}
		}
	}
	return nil
}

func (a *assembler) errf(format string, args ...any) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) statement(raw string) error {
	line := raw
	if i := strings.IndexAny(line, ";#"); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}

	// Peel off any leading "label:" prefixes.
	for {
		i := strings.Index(line, ":")
		if i < 0 || strings.ContainsAny(line[:i], " \t,(") {
			break
		}
		label := line[:i]
		if err := a.defineLabel(label); err != nil {
			return err
		}
		line = strings.TrimSpace(line[i+1:])
		if line == "" {
			return nil
		}
	}

	fields := strings.SplitN(line, " ", 2)
	mnem := strings.ToLower(strings.TrimSpace(fields[0]))
	rest := ""
	if len(fields) > 1 {
		rest = strings.TrimSpace(fields[1])
	}

	if strings.HasPrefix(mnem, ".") {
		return a.directive(mnem, rest)
	}
	if a.sec == secData {
		return a.errf("instruction %q in .data section", mnem)
	}
	if a.dataOnly {
		return nil
	}
	return a.instruction(mnem, rest)
}

func (a *assembler) defineLabel(label string) error {
	if a.sec == secData {
		// Data labels bind to the *next* directive; remember it.
		a.pendingData = append(a.pendingData, label)
		return nil
	}
	if a.dataOnly {
		return nil
	}
	a.b.Label(label)
	return nil
}

func (a *assembler) directive(name, rest string) error {
	switch name {
	case ".text":
		a.sec = secText
		return nil
	case ".data":
		a.sec = secData
		return nil
	case ".word", ".float", ".space":
		if a.sec != secData {
			return a.errf("%s outside .data", name)
		}
		if !a.dataOnly {
			a.pendingData = nil // already laid out in pass 1
			return nil
		}
		label := ""
		aliases := []string(nil)
		if n := len(a.pendingData); n > 0 {
			label = a.pendingData[0]
			aliases = a.pendingData[1:]
			a.pendingData = nil
		}
		var addr uint64
		switch name {
		case ".word":
			vals, err := a.parseInts(rest)
			if err != nil {
				return err
			}
			if err := a.reserve(len(vals) * isa.WordBytes); err != nil {
				return err
			}
			words := make([]uint64, len(vals))
			for i, v := range vals {
				words[i] = uint64(v)
			}
			addr = a.b.DataWords(label, words)
		case ".float":
			var vals []float64
			for _, f := range splitOperands(rest) {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return a.errf("bad float %q", f)
				}
				vals = append(vals, v)
			}
			if err := a.reserve(len(vals) * isa.WordBytes); err != nil {
				return err
			}
			addr = a.b.DataFloats(label, vals)
		case ".space":
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil || n < 0 {
				return a.errf("bad .space size %q", rest)
			}
			if err := a.reserve(n); err != nil {
				return err
			}
			addr = a.b.DataBytes(label, make([]byte, n))
		}
		for _, alias := range aliases {
			a.b.BindDataLabel(alias, addr)
		}
		return nil
	default:
		return a.errf("unknown directive %q", name)
	}
}

// reserve counts n more bytes of static data against maxDataBytes.
func (a *assembler) reserve(n int) error {
	if n > maxDataBytes-a.dataBytes {
		return a.errf("static data exceeds %d bytes", maxDataBytes)
	}
	a.dataBytes += n
	return nil
}

func (a *assembler) parseInts(rest string) ([]int64, error) {
	var out []int64
	for _, f := range splitOperands(rest) {
		v, err := parseIntLit(f)
		if err != nil {
			return nil, a.errf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitOperands(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseIntLit(s string) (int64, error) {
	if len(s) == 3 && s[0] == '\'' && s[2] == '\'' {
		return int64(s[1]), nil
	}
	return strconv.ParseInt(s, 0, 64)
}
