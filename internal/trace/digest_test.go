package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specvec/internal/emu"
	"specvec/internal/workload"
	"specvec/internal/wspec"
)

var update = flag.Bool("update", false, "rewrite the digest files and the FuzzDecode rejection seeds under testdata")

const (
	digestScale       = 20_000
	digestsPath       = "testdata/encode_digests.json"
	streamDigestsPath = "testdata/stream_digests.json"
)

// digestWorkloads returns the built-in suite followed by the generated
// workloads of examples/workloads, compiled without touching the global
// registry.
func digestWorkloads(t *testing.T) []workload.Benchmark {
	t.Helper()
	var benches []workload.Benchmark
	for _, n := range workload.Names() {
		b, err := workload.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, b)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "workloads", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		f, err := wspec.ParseFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range f.Workloads {
			benches = append(benches, wspec.CompileSpec(w))
		}
	}
	return benches
}

// digestTraces records every digest workload as the Runner records it
// (scale 20k + RecordSlack, seed 1) and passes each recording to each.
func digestTraces(t *testing.T, each func(name string, tr *Trace)) {
	t.Helper()
	benches := digestWorkloads(t)
	if len(benches) < 22 {
		t.Fatalf("want at least 22 workloads (12 built-ins, 10 generated), found %d", len(benches))
	}
	for _, b := range benches {
		prog := b.Build(digestScale, 1)
		rec, err := NewRecorder(newMachine(t, prog), prog, digestScale+RecordSlack)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rec.Finish(digestScale + RecordSlack)
		if err != nil {
			t.Fatal(err)
		}
		each(b.Name, tr)
	}
}

// checkDigests compares got, a sha256 per workload, with the file at
// path, or rewrites the file under -update; what names the digested
// bytes in errors.
func checkDigests(t *testing.T, path, what string, got map[string]string) {
	t.Helper()
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digests (run with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %s sha256 %s, want %s", name, what, got[name], w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no pinned digest (run with -update)", name)
		}
	}
}

// TestEncodeDigests pins the sha256 of EncodeBytes for every built-in
// and example-spec workload, recorded as the Runner records (scale
// 20k + RecordSlack, seed 1). The in-memory layout may change freely;
// the bytes on disk change only with the format version. Regenerate
// with: go test ./internal/trace -run TestEncodeDigests -update
func TestEncodeDigests(t *testing.T) {
	got := map[string]string{}
	digestTraces(t, func(name string, tr *Trace) {
		enc, err := tr.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		got[name] = hex.EncodeToString(sum[:])
	})
	checkDigests(t, digestsPath, "EncodeBytes", got)
}

// TestStreamDigests pins, for the same recordings as TestEncodeDigests,
// the sha256 of every record that a Replayer serves from
// Decode(Encode(recording)): Seq, PC, Inst, Vals, Taken and Halt, each
// little-endian at its full width. It is independent of the format, so
// a codec change must leave it as it is.
func TestStreamDigests(t *testing.T) {
	got := map[string]string{}
	digestTraces(t, func(name string, tr *Trace) {
		enc, err := tr.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var d emu.Record
		var buf []byte
		for r := NewReplayer(back); r.Next(&d); {
			buf = binary.LittleEndian.AppendUint64(buf[:0], d.Seq)
			buf = binary.LittleEndian.AppendUint64(buf, d.PC)
			buf = append(buf, byte(d.Inst.Op), byte(d.Inst.Rd), byte(d.Inst.Rs1), byte(d.Inst.Rs2))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Inst.Imm))
			buf = binary.LittleEndian.AppendUint64(buf, d.Vals[0])
			buf = binary.LittleEndian.AppendUint64(buf, d.Vals[1])
			buf = append(buf, boolByte(d.Taken), boolByte(d.Halt))
			h.Write(buf)
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
	})
	checkDigests(t, streamDigestsPath, "replayed stream", got)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
