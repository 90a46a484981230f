package server

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"testing"

	"specvec/internal/config"
	"specvec/internal/experiments"
)

// FuzzJobSpec feeds arbitrary bodies through the submission decoder
// (decodeJobSpec: 1 MiB, unknown fields rejected) and Normalize. Nothing
// may panic; a normalized spec must normalize to itself; and a JSON round
// trip must leave both the spec and its per-run key scope unchanged —
// the daemon stores and echoes normalized specs, so each must mean
// exactly the runs it meant on submission.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v fails to normalize: %v", norm, err)
		}
		if again != norm {
			t.Fatalf("Normalize is not idempotent:\n%+v\n%+v", norm, again)
		}
		enc, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeJobSpec(nil, io.NopCloser(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("normalized spec does not decode: %v\n%s", err, enc)
		}
		if back != norm {
			t.Fatalf("JSON round trip changed the spec:\n%+v\n%+v", norm, back)
		}
		if a, b := runScope(t, norm), runScope(t, back); !slices.Equal(a, b) {
			t.Fatalf("JSON round trip changed the run keys: %v vs %v", a, b)
		}
	})
}

// runScope names the runs a spec can produce: the run key of a built-in
// and, when the spec carries a payload, of each generated workload.
func runScope(t *testing.T, s JobSpec) []string {
	t.Helper()
	opts, f, err := s.runOptions()
	if err != nil {
		t.Fatalf("normalized spec %+v has no run options: %v", s, err)
	}
	cfg := config.MustNamed(4, 1, config.ModeV)
	keys := []string{experiments.RunKey(opts, cfg, "compress")}
	if f != nil {
		for _, n := range f.Names() {
			keys = append(keys, experiments.RunKey(opts, cfg, n))
		}
	}
	return keys
}
