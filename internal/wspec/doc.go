// Package wspec implements declarative workload specifications: a
// versioned YAML/JSON schema that composes parameterized program
// generators — stride/gather/scatter sweeps, pointer chasing,
// branch-entropy knobs, loop-carried dependence distance, INT/FP mix —
// into named synthetic benchmarks that run everywhere a built-in
// workload does (sdvsim, sdvexp sweeps, shards, the sdvd result cache).
//
// The package upholds a determinism contract every downstream layer
// depends on: the same (spec, seed) pair compiles to a byte-identical
// isa.Program, which records to a byte-identical trace and therefore an
// equal content-addressed cache key, while distinct seeds produce
// distinct programs. The contract is pinned by the property tests and
// the FuzzParseSpec harness in this package.
//
// Specs are parsed strictly: unknown fields, parameters outside their
// documented ranges, duplicate or built-in-colliding workload names and
// malformed YAML/JSON are all rejected with one-line errors, and
// decoding arbitrary bytes never panics. Canonical() renders the parsed
// file as normalized JSON (defaults resolved, fields in schema order),
// which is the form the server hashes into job cache keys.
package wspec
