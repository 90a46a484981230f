package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// deterministicPackages must produce byte-identical behaviour given the
// same inputs — they are the replay/simulation core whose determinism
// every cache key and trace replay guarantee rests on.
// The concurrency layers (experiments scheduling, the server) are
// excluded: they use wall-clock time and channels legitimately, and
// their determinism is enforced at the output level (detrange plus the
// byte-identity test suites).
var deterministicPackages = []string{
	"internal/asm",
	"internal/branch",
	"internal/config",
	"internal/core",
	"internal/emu",
	"internal/isa",
	"internal/mem",
	"internal/pipeline",
	"internal/stats",
	"internal/trace",
	"internal/workload",
	"internal/wspec",
}

// sanctionedPackages are the observability layer: obs is the one place
// the serving side reads the wall clock (clock injection lives there),
// so the analyzer never inspects it — and, in exchange, no
// deterministic package may import it. The import ban keeps the
// sanction from leaking: a sim-core package cannot launder a wall-clock
// read through obs.Clock.
var sanctionedPackages = []string{
	"internal/obs",
}

// NonDeterm flags ambient nondeterminism inside deterministic packages:
// wall-clock reads (time.Now/Since/Until), the globally-seeded
// math/rand sources (the repo's seeded splitmix64/LCG streams are the
// sanctioned randomness), and select statements over multiple channels
// (the runtime picks among ready cases pseudo-randomly).
var NonDeterm = &Analyzer{
	Name: "nondeterm",
	Doc:  "time.Now, global math/rand and multi-channel selects in deterministic packages",
	Run:  runNonDeterm,
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededConstructors build a caller-owned source from an explicit seed
// and are therefore fine; everything else package-level on math/rand
// draws from the shared global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNonDeterm(pass *Pass) {
	if !pathIn(pass.Pkg.Path, deterministicPackages) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if pathIn(path, sanctionedPackages) {
				pass.Reportf(imp.Pos(), "deterministic package imports %s, which is sanctioned to read the wall clock; keep observability out of the simulation core (instrument from the caller instead)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.SelectStmt:
				comms := 0
				for _, cl := range nn.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
						comms++
					}
				}
				if comms >= 2 {
					pass.Reportf(nn.Pos(), "select over %d channels chooses a ready case pseudo-randomly; deterministic packages must poll in a fixed order", comms)
				}
			case *ast.SelectorExpr:
				if !isPackageQualified(pass, nn) {
					return true
				}
				obj := pass.ObjectOf(nn.Sel)
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					if wallClockFuncs[obj.Name()] {
						pass.Reportf(nn.Pos(), "time.%s reads the wall clock in a deterministic package; thread cycle counts or explicit timestamps instead", obj.Name())
					}
				case "math/rand", "math/rand/v2":
					if !seededConstructors[obj.Name()] {
						pass.Reportf(nn.Pos(), "math/rand.%s uses the shared global source; derive a seeded stream instead (see workload.rng / the wspec splitmix64 streams)", obj.Name())
					}
				}
			}
			return true
		})
	}
}

// isPackageQualified reports whether sel is pkg.Name — a package
// qualifier resolves to a *types.PkgName — as opposed to a field or
// method selection on a value.
func isPackageQualified(pass *Pass, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkgName := pass.Pkg.Info.Uses[id].(*types.PkgName)
	return isPkgName
}
