package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specvec/internal/workload"
	"specvec/internal/wspec"
)

var update = flag.Bool("update", false, "rewrite testdata/encode_digests.json")

const (
	digestScale = 20_000
	digestsPath = "testdata/encode_digests.json"
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

// TestEncodeDigests pins the sha256 of EncodeBytes for every built-in
// and example-spec workload, recorded as the Runner records (scale
// 20k + RecordSlack, seed 1). The in-memory layout may change freely;
// the bytes on disk may not. Regenerate with:
// go test ./internal/trace -run TestEncodeDigests -update
func TestEncodeDigests(t *testing.T) {
	got := map[string]string{}
	for _, b := range digestWorkloads(t) {
		prog := b.Build(digestScale, 1)
		rec, err := NewRecorder(newMachine(t, prog), prog, digestScale+RecordSlack)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rec.Finish(digestScale + RecordSlack)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := tr.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		got[b.Name] = hex.EncodeToString(sum[:])
	}
	if len(got) < 22 {
		t.Fatalf("want at least 22 workloads (12 built-ins, 10 generated), found %d", len(got))
	}
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatalf("missing digests (run with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: EncodeBytes sha256 %s, want %s", name, got[name], w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no pinned digest (run with -update)", name)
		}
	}
}
