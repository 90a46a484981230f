package experiments

import (
	"context"
	"reflect"
	"testing"

	"specvec/internal/config"
)

// configLeaves collects every scalar field of the struct v by dotted
// path, descending into nested structs; v must be addressable.
func configLeaves(v reflect.Value, path string, out map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		if f.Kind() == reflect.Struct {
			configLeaves(f, name+".", out)
			continue
		}
		out[name] = f
	}
}

// TestRunKeyCoversConfig perturbs every field of config.Config, found by
// reflection, and checks each perturbation moves the run key — a field
// added later is covered without touching RunKey.
func TestRunKeyCoversConfig(t *testing.T) {
	opts := Options{Scale: 5_000, Seed: 1}.WithDefaults()
	base := config.MustNamed(4, 1, config.ModeV)
	baseKey := RunKey(opts, base, "compress")

	probe := map[string]reflect.Value{}
	configLeaves(reflect.ValueOf(&base).Elem(), "", probe)
	if len(probe) < 40 {
		t.Fatalf("found only %d config fields; the walk is broken", len(probe))
	}
	for name := range probe {
		cfg := base
		leaves := map[string]reflect.Value{}
		configLeaves(reflect.ValueOf(&cfg).Elem(), "", leaves)
		f := leaves[name]
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			t.Errorf("config field %s has kind %s: teach this test to perturb it", name, f.Kind())
			continue
		}
		if RunKey(opts, cfg, "compress") == baseKey {
			t.Errorf("perturbing config field %s left the run key unchanged", name)
		}
	}
}

// TestRunKeyScope: the result-bearing options move the key; execution
// shape — Workers, Progress, Context, Remote — never does.
func TestRunKeyScope(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	base := Options{Scale: 5_000, Seed: 1}.WithDefaults()
	key := RunKey(base, cfg, "compress")
	for name, o := range map[string]Options{
		"bench":  base, // checked below with a different benchmark
		"scale":  {Scale: 6_000, Seed: 1},
		"seed":   {Scale: 5_000, Seed: 2},
		"shards": {Scale: 5_000, Seed: 1, Shards: 2},
		"warmup": {Scale: 5_000, Seed: 1, Shards: 2, ShardWarmup: 777},
	} {
		bench := "compress"
		if name == "bench" {
			bench = "swim"
		}
		if RunKey(o.WithDefaults(), cfg, bench) == key {
			t.Errorf("changing %s left the run key unchanged", name)
		}
	}
	if RunKey(Options{Scale: 5_000, Seed: 1, Shards: 2}.WithDefaults(), cfg, "compress") ==
		RunKey(Options{Scale: 5_000, Seed: 1, Shards: 2, CheckpointEvery: 999}.WithDefaults(), cfg, "compress") {
		t.Error("a sharded run's key ignores its checkpoint spacing")
	}
	shape := base
	shape.Workers = base.Workers + 3
	shape.Progress = func(ProgressEvent) {}
	shape.Context = context.Background()
	shape.Remote = &wireExecutor{}
	shape.CheckpointEvery = 4096 // exact mode: spacing cannot change a result
	if RunKey(shape, cfg, "compress") != key {
		t.Error("execution shape changed the run key")
	}
}
