// Package lint machine-enforces the repository's determinism, hot-path
// and cache-key invariants as a suite of static analyzers, run by
// cmd/sdvcheck and by this package's own tests (so `go test ./...`
// keeps the tree clean even where CI is not involved).
//
// The suite mirrors the golang.org/x/tools/go/analysis shape — an
// Analyzer is a named Run function over a type-checked package, and
// fixtures assert diagnostics against `// want` comments — but is built
// on the standard library alone (go/ast, go/types, `go list`), because
// this module deliberately has no dependencies. If x/tools ever becomes
// available, each Analyzer.Run ports mechanically: the Pass surface is a
// subset of analysis.Pass.
//
// # Analyzers
//
//   - detrange: map iteration whose values reach an ordered sink
//     (serialization, HTTP/stdout writes, appends that are never
//     sorted, channel sends) in determinism-critical packages.
//   - shapetaint: fields annotated //sdv:shape (execution-shape knobs
//     like Workers, Progress, Context) must never be read inside
//     functions annotated //sdv:cachekey (RunKey, trace-store scopes,
//     workload-spec Canonical/Digest computations).
//   - hotalloc: allocation-introducing constructs (closures, map/slice
//     literals, make/new, fmt.*, interface boxing, string building)
//     inside functions annotated //sdv:hotpath.
//   - errdrop: errors from Finish/Close/Flush/Encode/Publish/Sync
//     calls silently discarded as bare statements — the recording-error
//     bug class PR 4 fixed by hand. An explicit `_ =` or a `defer` is
//     a visible decision and is not flagged.
//   - nondeterm: time.Now/Since/Until, global math/rand, and selects
//     over multiple channels in packages whose output must be
//     byte-identical across runs.
//
// # Annotation vocabulary
//
//	//sdv:hotpath   on a function: its body must not allocate.
//	//sdv:shape     on a struct field: execution shape only, must never
//	                reach cache keys.
//	//sdv:cachekey  on a function: computes (part of) a cache key or
//	                canonical form; shape fields are forbidden inside.
//	//sdv:ignore a,b -- reason
//	                on or immediately above a line: suppress the named
//	                analyzers there (bare //sdv:ignore suppresses all).
//
// Run locally with:
//
//	go run ./cmd/sdvcheck ./...
package lint
