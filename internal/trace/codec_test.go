package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
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

// FuzzDecode feeds arbitrary bytes — seeded with a valid encoding and
// one carrying the retired checkpoint flag — to Decode: it must never
// panic, and anything it accepts must survive an encode/decode
// round-trip unchanged.
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
		// Re-encoding legitimately upgrades the format version (a decoded
		// v1 file writes back as the current version); everything else
		// must round-trip unchanged.
		back.version = tr.version
		if !reflect.DeepEqual(tr, back) {
			t.Fatal("decode(encode(decode(data))) differs from decode(data)")
		}
	})
}
