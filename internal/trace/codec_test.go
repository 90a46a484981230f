package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"specvec/internal/isa"
)

// withFlags returns a copy of an encoded trace whose header fflags are
// set to ff, with the trailing checksum recomputed so the flags are the
// only thing wrong with the file.
func withFlags(good []byte, ff uint16) []byte {
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(bad[6:], ff)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	return bad
}

// withVersion returns a copy of an encoded trace whose header version is
// v, with the trailing checksum recomputed.
func withVersion(good []byte, v uint16) []byte {
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(bad[4:], v)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	return bad
}

// encodeBench records bench at scale and returns its encoding.
func encodeBench(t testing.TB, bench string, scale int) []byte {
	t.Helper()
	return encode(t, record(t, buildBench(t, bench, scale), 1<<22))
}

// TestDecodeRejectsUnknownFlags pins the header's one defined flag bit:
// a file that sets any other — bit 1 once marked an architectural
// checkpoint section, which this format no longer carries — fails with
// one line naming the flags, even when its checksum is sound.
func TestDecodeRejectsUnknownFlags(t *testing.T) {
	good := encodeBench(t, "compress", 600)
	if _, err := DecodeBytes(withFlags(good, fmtTruncated)); err != nil {
		t.Fatalf("truncated flag rejected: %v", err)
	}
	for _, ff := range []uint16{1 << 1, 1<<1 | fmtTruncated, 1 << 2, 1 << 15} {
		_, err := DecodeBytes(withFlags(good, ff))
		if err == nil {
			t.Fatalf("fflags %#x accepted", ff)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, "unsupported format flags") {
			t.Errorf("fflags %#x: want one line naming the flags, got %q", ff, msg)
		}
	}
}

// TestDecodeRejectsOldVersions pins the one accepted format version:
// versions 1 and 2 interned five values per record and version 3 stored
// a PC and a flag byte per record, which this build no longer reads, so
// such a file — and any future version — fails with one line naming the
// version, even when its checksum is sound.
func TestDecodeRejectsOldVersions(t *testing.T) {
	good := encodeBench(t, "compress", 600)
	if _, err := DecodeBytes(withVersion(good, Version)); err != nil {
		t.Fatalf("version %d rejected: %v", Version, err)
	}
	for _, v := range []uint16{0, 1, 2, 3, Version + 1} {
		_, err := DecodeBytes(withVersion(good, v))
		if err == nil {
			t.Fatalf("version %d accepted", v)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, "unsupported format version") {
			t.Errorf("version %d: want one line naming the version, got %q", v, msg)
		}
	}
}

// TestDecodeBoundsHeaderCounts feeds Decode headers that claim 2^24
// instructions, tuples or records and then end. The counts are not
// verified until the data (and finally the checksum) is read, so each
// must fail with one line, having allocated under 1 MiB.
func TestDecodeBoundsHeaderCounts(t *testing.T) {
	for _, c := range []struct {
		name                string
		insts, recs, tuples uint64
		want                string
	}{
		{"text", 1 << 24, 0, 0, "reading text"},
		{"tuples", 0, 0, 1 << 24, "reading tuples"},
		{"blocks", 0, 1 << 24, 0, "reading block at record 0"},
	} {
		hdr := binary.LittleEndian.AppendUint16(append([]byte(nil), magic[:]...), Version)
		hdr = binary.LittleEndian.AppendUint16(hdr, fmtTruncated)
		for _, v := range []uint64{0, c.insts, c.recs, c.tuples, 0} { // name length, counts, entry PC
			hdr = binary.AppendUvarint(hdr, v)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBytes(hdr)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: want one line containing %q, got %q", c.name, c.want, msg)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: Decode of a %d-byte header allocated %d B", c.name, len(hdr), got)
		}
	}
}

// TestDecodeRejectsBlocks pins the checks Decode makes of a block, of
// the walk that derives its PCs and of the header's halt and name
// length: each file below breaks one rule, with a sound checksum, and
// must fail with one line.
// Each is also a FuzzDecode seed under testdata/fuzz/FuzzDecode
// (rewritten with -update).
func TestDecodeRejectsBlocks(t *testing.T) {
	good := record(t, controlProgram(t), 1<<20)
	n := good.Len()
	if !good.Halted() || n%64 == 0 || good.TupleCount() >= 1<<8 {
		t.Fatalf("test premise broken: %d records (halted %v), %d tuples", n, good.Halted(), good.TupleCount())
	}
	if _, err := DecodeBytes(encode(t, good)); err != nil {
		t.Fatalf("pristine trace rejected: %v", err)
	}
	// edited returns a copy of good, one block deep, with edit applied
	// to its only block.
	edited := func(edit func(b *block)) *Trace {
		tr := *good
		b := tr.blocks[0]
		b.idx, b.taken = slices.Clone(b.idx), slices.Clone(b.taken)
		edit(&b)
		tr.blocks = []block{b}
		return &tr
	}
	for _, c := range []struct {
		name string
		tr   *Trace
		want string
	}{
		{"block-bad-width", edited(func(b *block) { b.w = 5 }),
			"block at record 0 has index width 5 (1 to 4 are defined)"},
		{"block-wide-index", edited(func(b *block) {
			var idx []byte
			for j := range n {
				idx = appendAt(idx, 2, b.at(j))
			}
			b.idx, b.w = idx, 2
		}), "stores indexes in 2 bytes, but its largest"},
		{"block-index-range", edited(func(b *block) { b.idx[n-1] = 0xff }),
			fmt.Sprintf("record %d references tuple 255 of %d", n-1, good.TupleCount())},
		{"block-stray-taken", edited(func(b *block) { b.taken[len(b.taken)-1] |= 1 << 63 }),
			fmt.Sprintf("block at record 0 sets taken bits past its %d records", n)},
		{"pc-beyond-uint32", farJump(), "record 1 has PC 0x100000000, beyond the recordable range"},
		{"halted-no-records", &Trace{name: "empty", insts: loopText(), halted: true},
			"not truncated, but no record holds the halt"},
		{"name-too-long", &Trace{name: strings.Repeat("x", maxName+1)}, "implausible name length 4097"},
	} {
		enc := encode(t, c.tr)
		_, err := DecodeBytes(enc)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: want one line containing %q, got %q", c.name, c.want, msg)
		}
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", enc)
		path := filepath.Join("testdata", "fuzz", "FuzzDecode", c.name)
		if *update {
			if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != seed {
			t.Errorf("%s: FuzzDecode seed %s missing or stale (run with -update): %v", c.name, path, err)
		}
	}
}

// farJump returns a trace the recorder refuses to make: a jr whose
// target, 2^32, does not fit a uint32 checkpoint, followed by the halt
// the emulator executes there.
func farJump() *Trace {
	tr := &Trace{name: "jrfar", insts: []isa.Inst{{Op: isa.OpJr, Rs1: isa.IntReg(1)}}}
	var cols columns
	var in interner
	for _, vals := range [][tupleWords]uint64{{1 << 32, 0}, {}} {
		cols.add(0, false, in.intern(&cols.tuples, &vals))
	}
	cols.halted = true
	cols.build(tr)
	return tr
}

// encode returns tr's encoding.
func encode(t testing.TB, tr *Trace) []byte {
	t.Helper()
	b, err := tr.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzDecode feeds arbitrary bytes — seeded with a valid encoding and
// one carrying the retired checkpoint flag, plus the files checked in
// under testdata/fuzz/FuzzDecode: TestDecodeRejectsBlocks' cases and
// three version-3 files — to Decode: it must never panic, and anything
// it accepts must survive an encode/decode round-trip unchanged.
func FuzzDecode(f *testing.F) {
	good := encodeBench(f, "compress", 600)
	f.Add(good)
	f.Add(withFlags(good, 1<<1))
	f.Add([]byte("SDVT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Encode(&out); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		back, err := Decode(&out)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatal("decode(encode(decode(data))) differs from decode(data)")
		}
	})
}
