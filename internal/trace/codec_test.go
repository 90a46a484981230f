package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"specvec/internal/emu"
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

// withRecordFlags returns tr's encoding with record i's flag byte set to
// f and the trailing checksum recomputed, so the flag byte is the only
// thing wrong with the file. The flag section sits just before the
// tuple-index and tuple sections, whose lengths are recomputed here.
func withRecordFlags(t testing.TB, tr *Trace, i int, f byte) []byte {
	t.Helper()
	enc, err := tr.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	var buf [binary.MaxVarintLen64]byte
	tail := 4 // checksum
	prev := int64(0)
	for j := range tr.Len() {
		v := int64(tr.blocks[j/blockLen].at(j % blockLen))
		tail += binary.PutVarint(buf[:], v-prev)
		prev = v
	}
	for _, v := range tr.tuples {
		tail += binary.PutUvarint(buf[:], v)
	}
	off := len(enc) - tail - tr.Len() + i
	if want := recordFlags(tr, i); enc[off] != want {
		t.Fatalf("flag byte of record %d at offset %d reads %#x, want %#x", i, off, enc[off], want)
	}
	enc[off] = f
	binary.LittleEndian.PutUint32(enc[len(enc)-4:], crc32.ChecksumIEEE(enc[:len(enc)-4]))
	return enc
}

// withPCs returns tr's encoding with its PC column replaced by the PCs
// that edit makes of the stored ones, and the trailing checksum
// recomputed, so the PCs are the only thing wrong with the file. The PC
// column sits just before the flag, tuple-index and tuple sections,
// whose lengths are recomputed here.
func withPCs(t testing.TB, tr *Trace, edit func(pcs []uint32)) []byte {
	t.Helper()
	enc, err := tr.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	var pcs []uint32
	var d emu.Record
	for r := NewReplayer(tr); r.Next(&d); {
		pcs = append(pcs, uint32(d.PC))
	}
	column := func(vals []uint32) []byte {
		var b []byte
		prev := int64(0)
		for _, v := range vals {
			b = binary.AppendVarint(b, int64(v)-prev)
			prev = int64(v)
		}
		return b
	}
	var idx []uint32
	for j := range tr.Len() {
		idx = append(idx, tr.blocks[j/blockLen].at(j%blockLen))
	}
	tail := 4 + tr.Len() + len(column(idx))
	for _, v := range tr.tuples {
		tail += len(binary.AppendUvarint(nil, v))
	}
	old := column(pcs)
	off := len(enc) - tail - len(old)
	if !bytes.Equal(enc[off:off+len(old)], old) {
		t.Fatalf("PC column not found at offset %d", off)
	}
	edit(pcs)
	out := append(append(append([]byte(nil), enc[:off]...), column(pcs)...), enc[off+len(old):]...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestDecodeRejectsPCs pins the PC column's one rule: every stored PC
// after the first is its predecessor's successor, as the emulator steps.
// A trace keeps only each block's first PC, so a file that breaks the
// rule — mid-block, at a block's first record, or after a jr whose target
// is in its tuple — fails with one line even when its checksum is sound.
func TestDecodeRejectsPCs(t *testing.T) {
	tr := record(t, jrBlockProgram(), 1<<20)
	if _, err := DecodeBytes(withPCs(t, tr, func([]uint32) {})); err != nil {
		t.Fatalf("unedited PCs rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		i    int
		pc   uint32
		want string
	}{
		{"mid-block", 10, 7, "record 10 has PC 7, but the successor of record 9"},
		{"block start", blockLen, 5, "record 4096 has PC 5, but the successor of record 4095 (jr at PC 7) is 4"},
		{"after a jr", 8, 10, "record 8 has PC 10, but the successor of record 7 (jr at PC 7) is 4"},
		{"last record", tr.Len() - 1, 7, "has PC 7, but the successor"},
	} {
		_, err := DecodeBytes(withPCs(t, tr, func(pcs []uint32) { pcs[c.i] = c.pc }))
		if err == nil {
			t.Fatalf("%s: record %d at PC %d accepted", c.name, c.i, c.pc)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: want one line containing %q, got %q", c.name, c.want, msg)
		}
	}
}

// recordFlags returns the flag byte Encode writes for record i.
func recordFlags(tr *Trace, i int) byte {
	var f byte
	if tr.blocks[i/blockLen].takenAt(i % blockLen) {
		f |= flagTaken
	}
	if tr.halted && i == tr.Len()-1 {
		f |= flagHalt
	}
	return f
}

// encodeBench records bench at scale and returns its encoding.
func encodeBench(t testing.TB, bench string, scale int) []byte {
	t.Helper()
	b, err := record(t, buildBench(t, bench, scale), 1<<22).EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
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
// versions 1 and 2 interned five values per record, which this build no
// longer reads, so such a file — and any future version — fails with one
// line naming the version, even when its checksum is sound.
func TestDecodeRejectsOldVersions(t *testing.T) {
	good := encodeBench(t, "compress", 600)
	if _, err := DecodeBytes(withVersion(good, Version)); err != nil {
		t.Fatalf("version %d rejected: %v", Version, err)
	}
	for _, v := range []uint16{0, 1, 2, Version + 1} {
		_, err := DecodeBytes(withVersion(good, v))
		if err == nil {
			t.Fatalf("version %d accepted", v)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, "unsupported format version") {
			t.Errorf("version %d: want one line naming the version, got %q", v, msg)
		}
	}
}

// TestDecodeRejectsBadFlags pins the record flag byte: the in-memory
// form holds only a taken bit per record and a halt on the last record,
// so a flag byte with an undefined bit, or a halt anywhere but the last
// record, fails with one line even when the checksum is sound.
func TestDecodeRejectsBadFlags(t *testing.T) {
	tr := record(t, controlProgram(t), 1<<20)
	n := tr.Len()
	if !tr.Halted() || n < 3 {
		t.Fatalf("control program recorded %d records (halted %v)", n, tr.Halted())
	}
	if _, err := DecodeBytes(withRecordFlags(t, tr, 1, flagTaken)); err != nil {
		t.Fatalf("taken flag rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		i    int
		f    byte
		want string
	}{
		{"undefined bit", 1, 1 << 2, "has flags 0x4"},
		{"undefined bit with taken", n - 1, flagHalt | 1<<7, "has flags 0x82"},
		{"mid-stream halt", 1, flagHalt, "halts before the last record"},
		{"first-record halt", 0, flagHalt | flagTaken, "halts before the last record"},
	} {
		_, err := DecodeBytes(withRecordFlags(t, tr, c.i, c.f))
		if err == nil {
			t.Fatalf("%s: record %d flags %#x accepted", c.name, c.i, c.f)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: want one line containing %q, got %q", c.name, c.want, msg)
		}
	}
}

// FuzzDecode feeds arbitrary bytes — seeded with a valid encoding and
// one carrying the retired checkpoint flag, plus the record-flag and
// PC-successor rejections checked in under testdata/fuzz/FuzzDecode — to
// Decode: it
// must never panic, and anything it accepts must survive an
// encode/decode round-trip unchanged.
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
