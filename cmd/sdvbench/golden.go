package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// goldenJSON holds sha256 digests of every workload output for seeds 1
// and 2 at the benchmark scales: rendered tables for paper-sweep and
// served-cold, the primed results for served-warm, and the stats.Sim JSON
// of every run for single-runs. Regenerate with -golden-out only when a
// change is meant to alter simulated results.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile maps workload → seed → entry.
type goldenFile map[string]map[string]goldenEntry

type goldenEntry struct {
	Scale   int               `json:"scale"`
	Digests map[string]string `json:"digests"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// check compares got with the golden entry for (workload, seed, scale).
// Without one it returns "unverified"; otherwise every item must be
// present on both sides with equal digests, and the differing items are
// returned.
func (g goldenFile) check(wl string, seed int64, scale int, got map[string]string) (string, []string) {
	e, ok := g[wl][fmt.Sprint(seed)]
	if !ok || e.Scale != scale {
		return "unverified", nil
	}
	var bad []string
	for item, want := range e.Digests {
		if got[item] != want {
			bad = append(bad, item)
		}
	}
	for item := range got {
		if _, ok := e.Digests[item]; !ok {
			bad = append(bad, item+" (not in golden)")
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Sprintf("MISMATCH on %d outputs", len(bad)), bad
	}
	return "verified", nil
}

// checkItems returns the items of got whose digests differ from the
// golden entry for (workload, seed), when there is one; items the entry
// lacks count as differing.
func (g goldenFile) checkItems(wl string, seed int64, got map[string]string) []string {
	e, ok := g[wl][fmt.Sprint(seed)]
	if !ok {
		return nil
	}
	var bad []string
	for item, d := range got {
		if e.Digests[item] != d {
			bad = append(bad, item)
		}
	}
	sort.Strings(bad)
	return bad
}

// writeGolden runs every workload once for seeds 1 and 2 at the benchmark
// scales and writes their digests to s.goldenOut.
func writeGolden(s settings) error {
	if s.scale != 0 || s.traceDir != "" {
		return fmt.Errorf("-golden-out takes neither -scale nor -trace: golden digests are for the benchmark scales")
	}
	g := goldenFile{}
	for _, w := range workloads {
		g[w.name] = map[string]goldenEntry{}
		for _, seed := range []int64{1, 2} {
			cs := s
			cs.seed, cs.seconds = seed, 1
			_, out, _, err := spawn(cs.childArgs(w.name, roleMeasure))
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			var res childResult
			if err := json.Unmarshal(out, &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d operations failed: %v", w.name, seed, res.Failed, res.Errors)
			}
			g[w.name][fmt.Sprint(seed)] = goldenEntry{Scale: w.scale, Digests: res.Digests}
			fmt.Fprintf(os.Stderr, "golden: %s seed %d: %d digests\n", w.name, seed, len(res.Digests))
		}
	}
	return writeJSON(s.goldenOut, g)
}
