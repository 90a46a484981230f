package experiments

// Golden tables: the sha256 of every experiments.All() table rendered at
// goldenScale, seed 1, pinned in testdata/golden.json and checked at one
// and two workers. The pin is the regression net for the runner's
// execution path: any change to how a run is recorded, planned, executed
// or merged that moves a single byte of a paper table fails here.
// Regenerate with: go test ./internal/experiments -run TestGoldenTables -update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"specvec/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json")

const goldenScale = 10_000

// goldenTable is one pinned table: the experiment that produced it, the
// table's own ID and the sha256 of its rendering.
type goldenTable struct {
	Exp    string `json:"exp"`
	Table  string `json:"table"`
	SHA256 string `json:"sha256"`
}

// goldenTables renders every experiment on a fresh runner and hashes each
// table in order. It also returns how many recordings the runner made.
func goldenTables(t *testing.T, workers int) ([]goldenTable, int64) {
	t.Helper()
	r := NewRunner(Options{Scale: goldenScale, Seed: 1, Workers: workers})
	var out []goldenTable
	for _, e := range All() {
		tabs, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s (workers=%d): %v", e.ID, workers, err)
		}
		for _, tab := range tabs {
			sum := sha256.Sum256([]byte(tab.Render()))
			out = append(out, goldenTable{Exp: e.ID, Table: tab.ID, SHA256: hex.EncodeToString(sum[:])})
		}
	}
	return out, r.TraceRecordings()
}

func TestGoldenTables(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("full experiment sweep in -short mode")
	}
	path := filepath.Join("testdata", "golden.json")
	if *update {
		tables, _ := goldenTables(t, 2)
		b, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	var want []goldenTable
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, recorded := goldenTables(t, workers)
			// fig1 runs one configuration, so it releases its recordings
			// and the next experiment records them again; after that every
			// benchmark has two consumers and keeps its recording.
			if most := int64(2 * len(workload.Names())); recorded > most {
				t.Errorf("the sweep recorded %d times, want at most %d (twice per benchmark)", recorded, most)
			}
			if len(got) != len(want) {
				t.Fatalf("rendered %d tables, golden pins %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("table %d: got %+v, golden %+v", i, got[i], want[i])
				}
			}
		})
	}
}
