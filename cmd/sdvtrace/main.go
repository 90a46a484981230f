// Command sdvtrace inspects recorded dynamic-instruction traces (the
// files written by sdvsim -trace-record and consumed by -trace-replay).
//
// Usage:
//
//	sdvtrace trace.sdvt              # header and summary statistics
//	sdvtrace -dump 20 trace.sdvt     # additionally print the first 20 records
//	sdvtrace -dump 20 -start 1000 trace.sdvt
//	sdvtrace -verify trace.sdvt      # decode fully, checksum included; exit status only
//
// Multiple files may be given; each is reported in turn.
//
// The timeline subcommand renders a daemon job's span tree as an
// indented waterfall instead of inspecting a trace file:
//
//	sdvtrace timeline -server http://127.0.0.1:8077 j000001
package main

import (
	"flag"
	"fmt"
	"os"
	"unsafe"

	"specvec/internal/cliutil"
	"specvec/internal/emu"
	"specvec/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "timeline" {
		os.Exit(timelineCmd(os.Args[2:]))
	}
	var (
		dump   = flag.Int("dump", 0, "print the first N records (after -start)")
		start  = flag.Int("start", 0, "first record to dump")
		verify = flag.Bool("verify", false, "decode and checksum only; print nothing on success")
	)
	flag.Parse()
	if *dump < 0 {
		cliutil.Fatal("sdvtrace", cliutil.FlagError("dump", *dump, ">= 0"))
	}
	if *start < 0 {
		cliutil.Fatal("sdvtrace", cliutil.FlagError("start", *start, ">= 0"))
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: sdvtrace [-dump N] [-start S] [-verify] FILE...")
		os.Exit(2)
	}
	status := 0
	for _, path := range flag.Args() {
		if err := inspect(path, *dump, *start, *verify); err != nil {
			fmt.Fprintln(os.Stderr, "sdvtrace:", err)
			status = 1
		}
	}
	os.Exit(status)
}

func inspect(path string, dump, start int, verify bool) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	t, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	if verify {
		return nil
	}

	state := "halted"
	if t.Truncated() {
		state = "truncated"
	}
	fmt.Printf("%s: trace of %q (format v%d, checksum OK)\n", path, t.Name(), trace.Version)
	fmt.Printf("  records     %d dynamic instructions, %s\n", t.Len(), state)
	fmt.Printf("  text        %d static instructions\n", t.StaticLen())
	if n := t.Len(); n > 0 {
		fmt.Printf("  tuples      %d distinct operand tuples (%.1f%% of records)\n",
			t.TupleCount(), 100*float64(t.TupleCount())/float64(n))
		aos := n * int(unsafe.Sizeof(emu.Record{}))
		fmt.Printf("  size        %d B on disk, %d B decoded (%.1fx smaller than %d B array-of-structs)\n",
			fi.Size(), t.SizeBytes(), float64(aos)/float64(t.SizeBytes()), aos)
	}
	if dump > 0 {
		var d emu.Record
		r := trace.NewReplayer(t)
		r.Seek(start)
		for i := 0; i < dump && r.Next(&d); i++ {
			extra := ""
			switch {
			case d.Inst.IsMem():
				extra = fmt.Sprintf("  addr=%#x", d.EffAddr())
			case d.Inst.IsBranch():
				extra = fmt.Sprintf("  taken=%v", d.Taken)
			}
			fmt.Printf("  %8d  pc=%-6d %-24s%s\n", d.Seq, d.PC, d.Inst.String(), extra)
		}
	}
	return nil
}
