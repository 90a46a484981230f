package wspec_test

// The determinism contract, pinned end to end: the same (spec, seed)
// pair must compile to a byte-identical program, record a byte-identical
// trace and address the same cached run, while distinct seeds —
// runner or spec — produce distinct programs. Every downstream layer
// (shared trace memo, shards, the sdvd result cache) assumes exactly
// this.

import (
	"bytes"
	"encoding/json"
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/experiments"
	"specvec/internal/isa"
	"specvec/internal/trace"
	"specvec/internal/workload"
	"specvec/internal/wspec"
)

// propSpecs cover three generator families (stride, pointer-chase,
// branch-entropy) plus the irregular and mix knobs.
var propSpecs = map[string]string{
	"stride": `
wspec: 1
workloads:
  - name: gen.prop
    blocks:
      - gen: stride
        elems: 256
        stride: 4
        stores: 50
`,
	"chase": `
wspec: 1
workloads:
  - name: gen.prop
    blocks:
      - gen: chase
        nodes: 128
        shuffle: true
`,
	"branch": `
wspec: 1
workloads:
  - name: gen.prop
    blocks:
      - gen: branch
        count: 256
        entropy: 50
`,
	"gather-mix": `
wspec: 1
workloads:
  - name: gen.prop
    blocks:
      - gen: gather
        table: 64
        span: 256
      - gen: mix
        count: 128
        fpPercent: 50
`,
}

func buildProp(t *testing.T, src string, scale int, seed int64) *isa.Program {
	t.Helper()
	f, err := wspec.Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return wspec.CompileSpec(f.Workloads[0]).Build(scale, seed)
}

// programBytes is a canonical byte encoding of a program: JSON with
// sorted map keys, covering instructions, data segments and symbols.
func programBytes(t *testing.T, p *isa.Program) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func recordBytes(t *testing.T, p *isa.Program) []byte {
	t.Helper()
	m, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(m, p, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSameSpecSameSeedByteIdentical(t *testing.T) {
	const scale = 8_000
	for name, src := range propSpecs {
		t.Run(name, func(t *testing.T) {
			a := buildProp(t, src, scale, 1)
			b := buildProp(t, src, scale, 1)
			ab, bb := programBytes(t, a), programBytes(t, b)
			if !bytes.Equal(ab, bb) {
				t.Fatal("same (spec, seed) built different programs")
			}
			if !bytes.Equal(recordBytes(t, a), recordBytes(t, b)) {
				t.Fatal("same (spec, seed) recorded different traces")
			}
		})
	}
}

func TestDistinctSeedsDistinctPrograms(t *testing.T) {
	const scale = 8_000
	for name, src := range propSpecs {
		t.Run(name, func(t *testing.T) {
			a := programBytes(t, buildProp(t, src, scale, 1))
			b := programBytes(t, buildProp(t, src, scale, 2))
			if bytes.Equal(a, b) {
				t.Fatal("distinct runner seeds built identical programs")
			}
		})
	}
}

func TestSpecSeedParticipates(t *testing.T) {
	withSeed := func(seed string) string {
		return `
wspec: 1
workloads:
  - name: gen.prop
    seed: ` + seed + `
    blocks:
      - gen: branch
        count: 256
        entropy: 50
`
	}
	a := programBytes(t, buildProp(t, withSeed("1"), 8_000, 1))
	b := programBytes(t, buildProp(t, withSeed("2"), 8_000, 1))
	if bytes.Equal(a, b) {
		t.Fatal("distinct spec seeds built identical programs")
	}
}

// TestCacheKeyFollowsContent pins the cache half of the contract: a
// generated workload's run key follows its definition's content, so two
// submissions of the same spec — formatted differently — share a key,
// and seed or content changes split it.
func TestCacheKeyFollowsContent(t *testing.T) {
	key := func(specs string, seed int64) string {
		t.Helper()
		f, err := wspec.Parse([]byte(specs))
		if err != nil {
			t.Fatal(err)
		}
		b := wspec.CompileSpec(f.Workloads[0])
		opts := experiments.Options{Scale: 8_000, Seed: seed, Workloads: func(string) (workload.Benchmark, error) {
			return b, nil
		}}.WithDefaults()
		return experiments.RunKey(opts, config.MustNamed(4, 1, config.ModeV), b.Name)
	}
	yaml := `
wspec: 1
workloads:
  - name: gen.prop
    blocks:
      - gen: stride
        elems: 256
        stride: 4
`
	reordered := `{"wspec":1,"workloads":[{"blocks":[{"stride":4,"elems":256,"gen":"stride"}],"name":"gen.prop"}]}`
	if key(yaml, 1) != key(reordered, 1) {
		t.Fatal("equivalent specs got different cache keys")
	}
	if key(yaml, 1) == key(yaml, 2) {
		t.Fatal("seed did not participate in the cache key")
	}
	changed := `{"wspec":1,"workloads":[{"name":"gen.prop","blocks":[{"gen":"stride","elems":256,"stride":8}]}]}`
	if key(yaml, 1) == key(changed, 1) {
		t.Fatal("content change did not change the cache key")
	}
}
