package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime/debug"
	"strconv"
	"sync"

	"specvec/internal/config"
	"specvec/internal/stats"
	"specvec/internal/workload"
)

// ResultStore persists per-run statistics across Runner instances, under
// the content address RunKey computes. Runner.Run consults it on a memo
// miss, before recording: a hit loads no trace and takes no pool slot; a
// miss simulates through compute and the store keeps the result. The
// service layer backs it with its content-addressed cache, so every job
// on a daemon shares every run.
type ResultStore interface {
	// GetOrCompute returns the statistics stored under key, or calls
	// compute — synchronously, on the caller's goroutine — and stores a
	// successful result. Concurrent calls for one key compute once and
	// share the outcome; a caller whose leader was cancelled computes
	// itself. ctx cancels the wait and carries the run's span
	// (obs.FromContext). The returned statistics are shared with every
	// other caller and must not be mutated.
	GetOrCompute(ctx context.Context, key string, compute func() (*stats.Sim, error)) (*stats.Sim, error)
}

// resultSchema versions the stats.Sim encoding the result stores persist.
// Bump it when that JSON shape changes incompatibly: the version is
// hashed into every run key, so persisted entries from an older schema
// miss instead of decoding wrongly.
const resultSchema = 1

// RunKey is the content address of one simulation's statistics, shared
// by the Runner's in-process memo and Options.Results. It covers
// everything a result depends on: every field of cfg, the benchmark and
// — for a generated workload — the digest of its definition as resolved
// through o, Scale and Seed, the result schema and the module
// version (a build from different code is a different result space).
// Execution shape — Workers, Progress, Context — never enters
// it: results are byte-identical across all of them. o must have its
// defaults resolved (Options.WithDefaults), as a Runner's options do.
//
//sdv:cachekey
func RunKey(o Options, cfg config.Config, bench string) string {
	var digest string
	if b, err := o.Resolve(bench); err == nil {
		digest = b.Digest
	}
	b := make([]byte, 0, 512)
	b = fmt.Appendf(b, "specvec/%d\x00%s\x00%s\x00%s\x00s%d-d%d",
		resultSchema, moduleVersion(), bench, digest, o.Scale, o.Seed)
	b = appendFields(append(b, 0), reflect.ValueOf(cfg))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendFields appends every field of the struct v to b in declaration
// order, descending into nested structs. The Runner keys every Run call,
// so this is a flat reflective walk rather than encoding/json, whose
// encoder costs several times more per key. A field kind it cannot
// encode panics rather than being left out of the key.
func appendFields(b []byte, v reflect.Value) []byte {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			b = appendFields(b, f)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b = binary.AppendVarint(b, f.Int())
		case reflect.Bool:
			b = strconv.AppendBool(b, f.Bool())
		case reflect.String:
			b = binary.AppendUvarint(b, uint64(f.Len()))
			b = append(b, f.String()...)
		default:
			panic(fmt.Sprintf("experiments: %s.%s has kind %s; teach appendFields about it",
				v.Type(), v.Type().Field(i).Name, f.Kind()))
		}
	}
	return b
}

// Resolve looks a benchmark up the way a Runner built from o does:
// through o.Workloads, or the global registry when it is nil.
func (o Options) Resolve(bench string) (workload.Benchmark, error) {
	if o.Workloads != nil {
		return o.Workloads(bench)
	}
	return workload.Get(bench)
}

var (
	moduleOnce sync.Once
	moduleVer  string
)

// moduleVersion identifies the running build for run keys: module
// version and sum when built from a module, VCS revision when embedded,
// "devel" otherwise. vcs.modified and vcs.time are included so a dirty
// build does not share persisted results with the clean build of the
// same commit. Two successive dirty builds still collide — development
// against a persistent sdvd -cache-dir should use a scratch directory.
func moduleVersion() string {
	moduleOnce.Do(func() {
		moduleVer = "devel"
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		v := bi.Main.Version + "+" + bi.Main.Sum
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.modified", "vcs.time":
				v += "+" + s.Key + "=" + s.Value
			}
		}
		moduleVer = v
	})
	return moduleVer
}
