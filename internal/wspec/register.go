package wspec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"specvec/internal/workload"
)

// Registration makes spec workloads resolvable by name through
// workload.Get, which is how the CLIs and the daemon pick them up. The
// package remembers the canonical definition behind each name so
// re-registering an identical definition (the same file loaded twice,
// or two files sharing a workload) is a no-op, while a conflicting one
// is an error — a name must mean one program.

var (
	regMu  sync.Mutex
	regDef = map[string]regEntry{}
)

type regEntry struct {
	spec      Spec
	canonical string
}

// canonicalSpec renders one workload spec in the same normalized form
// Canonical uses for whole files, for definition-identity comparison.
//
//sdv:cachekey
func canonicalSpec(s Spec) string {
	one := File{Version: Version, Workloads: []Spec{s}}
	return one.Canonical()
}

// Digest returns the hex SHA-256 of a workload spec's canonical form: the
// identity of its definition. CompileSpec stamps it on the Benchmark
// (workload.Benchmark.Digest), so resolving a generated workload by name
// — from a job payload or from registration — also looks up its
// definition, and every cache key built from it names the content.
//
//sdv:cachekey
func Digest(s Spec) string {
	sum := sha256.Sum256([]byte(canonicalSpec(s)))
	return hex.EncodeToString(sum[:])
}

// RegisterFile compiles and registers every workload in a parsed file.
// Identical re-registration is a no-op; a name already bound to a
// different definition (or to a built-in) is an error.
func RegisterFile(f *File) error {
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range f.Workloads {
		canon := canonicalSpec(s)
		if prev, ok := regDef[s.Name]; ok {
			if prev.canonical == canon {
				continue
			}
			return fmt.Errorf("wspec: workload %q is already registered with a different definition", s.Name)
		}
		if err := workload.Register(CompileSpec(s)); err != nil {
			return err
		}
		regDef[s.Name] = regEntry{spec: s, canonical: canon}
	}
	return nil
}

// LoadAndRegister parses the spec file at path and registers its
// workloads, returning the parsed file.
func LoadAndRegister(path string) (*File, error) {
	f, err := ParseFile(path)
	if err != nil {
		return nil, err
	}
	if err := RegisterFile(f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return f, nil
}

// Lookup returns the registered spec behind a generated workload name.
// The daemon uses it to fold `-spec`-registered definitions into job
// specs so cache keys always cover workload content.
func Lookup(name string) (Spec, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	e, ok := regDef[name]
	return e.spec, ok
}
