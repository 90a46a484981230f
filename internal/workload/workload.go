package workload

import (
	"fmt"
	"sort"
	"sync"

	"specvec/internal/isa"
)

// Benchmark is one generated program family.
type Benchmark struct {
	Name string
	FP   bool
	// Generated marks a workload compiled from a declarative spec
	// (internal/wspec) rather than one of the built-in Spec95 substitutes.
	Generated bool
	// Digest identifies a generated workload's definition (wspec.Digest);
	// it is "" for built-ins, whose definition is the code. Cache keys
	// carry it, so two definitions sharing a name never share a result
	// or a recording.
	Digest string
	// Description summarises the real program this stands in for and the
	// behaviour the generator reproduces.
	Description string
	// Build generates the program. scale is the approximate dynamic
	// instruction count of a full run; seed perturbs embedded data.
	Build func(scale int, seed int64) *isa.Program
}

var registry = map[string]Benchmark{}

func register(b Benchmark) {
	if _, dup := registry[b.Name]; dup {
		panic("workload: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
}

// The generated registry holds spec-compiled workloads added after init.
// It is separate from the built-in registry so the paper's experiment
// suite (Names) never changes shape under a loaded spec file, and guarded
// by a mutex because CLIs and the daemon register at startup while tests
// exercise registration concurrently.
var (
	genMu    sync.Mutex
	genOrder []string
	genReg   = map[string]Benchmark{}
)

// Register adds a generated benchmark to the registry, making it
// resolvable by Get alongside the built-ins. Registering a name that is
// already taken — by a built-in or an earlier registration — is an error;
// callers that support idempotent re-registration (internal/wspec) dedupe
// by definition identity before calling.
func Register(b Benchmark) error {
	if b.Name == "" || b.Build == nil {
		return fmt.Errorf("workload: registering %q: need a name and a Build function", b.Name)
	}
	if _, dup := registry[b.Name]; dup {
		return fmt.Errorf("workload: %q is a built-in benchmark", b.Name)
	}
	genMu.Lock()
	defer genMu.Unlock()
	if _, dup := genReg[b.Name]; dup {
		return fmt.Errorf("workload: duplicate generated benchmark %q", b.Name)
	}
	b.Generated = true
	genReg[b.Name] = b
	genOrder = append(genOrder, b.Name)
	return nil
}

// GeneratedNames returns the registered generated workloads in
// registration order.
func GeneratedNames() []string {
	genMu.Lock()
	defer genMu.Unlock()
	return append([]string{}, genOrder...)
}

// Get returns the named benchmark, built-in or generated.
func Get(name string) (Benchmark, error) {
	if b, ok := registry[name]; ok {
		return b, nil
	}
	genMu.Lock()
	b, ok := genReg[name]
	genMu.Unlock()
	if !ok {
		return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, append(Names(), GeneratedNames()...))
	}
	return b, nil
}

// Names returns all benchmark names, integer suite first, in the paper's
// presentation order.
func Names() []string {
	return append(append([]string{}, IntNames()...), FPNames()...)
}

// IntNames returns the SpecInt95 substitute suite in the paper's order.
func IntNames() []string {
	return []string{"go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex"}
}

// FPNames returns the SpecFP95 substitute suite in the paper's order.
func FPNames() []string {
	return []string{"swim", "applu", "turb3d", "fpppp"}
}

// All returns every benchmark in presentation order: the built-in suite
// first, then generated workloads in registration order.
func All() []Benchmark {
	var out []Benchmark
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	genMu.Lock()
	defer genMu.Unlock()
	for _, n := range genOrder {
		out = append(out, genReg[n])
	}
	return out
}

// sortedRegistryNames is used by tests to confirm registration coverage.
func sortedRegistryNames() []string {
	var out []string
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---- shared generator helpers ----

type rng struct{ s uint64 }

func newRng(seed int64) *rng { return &rng{s: uint64(seed)*2862933555777941757 + 3037000493} }

func (r *rng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 16
}

// words returns n pseudo-random 64-bit values bounded below mod.
func (r *rng) words(n int, mod uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		if mod == 0 {
			out[i] = r.next()
		} else {
			out[i] = r.next() % mod
		}
	}
	return out
}

// floats returns n pseudo-random doubles in (0, 1].
func (r *rng) floats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(r.next()%1_000_000+1) / 1_000_000
	}
	return out
}

// Conventional register roles used across generators to keep them readable.
var (
	rZero = isa.IntReg(0)
	rIter = isa.IntReg(29) // outer-loop counter
	rLim  = isa.IntReg(28) // outer-loop bound
)

func ri(i int) isa.Reg { return isa.IntReg(i) }
func rf(i int) isa.Reg { return isa.FPReg(i) }

// outer wraps body in `for rIter = 0; rIter < n; rIter++` so generators
// can dial dynamic length with one knob.
func outer(b *isa.Builder, name string, n int, body func()) {
	b.Li(rIter, 0)
	b.Li(rLim, int64(n))
	b.Label(name)
	body()
	b.Addi(rIter, rIter, 1)
	b.Blt(rIter, rLim, name)
}

// clampScale keeps generated trip counts sane.
func clampScale(scale, min int) int {
	if scale < min {
		return min
	}
	return scale
}
