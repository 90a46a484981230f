package lint

import (
	"go/ast"
	"go/types"
)

// errDropNames are the method/function names whose errors this repo has
// actually swallowed or must never swallow: Finish (trace.Recorder's one
// recording call, where a nil-error Finish with a nil trace once poisoned
// sweeps), Close/Flush/Sync on write paths, Encode on serializers,
// Publish on artifact stores. Scoped far tighter than errcheck on
// purpose: these names are the repo's resource-finalization vocabulary,
// so a bare call is almost always a bug rather than style.
var errDropNames = map[string]bool{
	"Finish":  true,
	"Close":   true,
	"Flush":   true,
	"Sync":    true,
	"Encode":  true,
	"Publish": true,
}

// ErrDrop flags bare statement calls to finalization/serialization
// methods that return an error. `defer f.Close()` is conventional on
// read-only paths and `_ = f.Close()` is a visible decision; only the
// silent form — the call as its own statement — is flagged.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "silently discarded errors from Finish/Close/Flush/Sync/Encode/Publish calls",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, recv := calleeName(call)
			if !errDropNames[name] {
				return true
			}
			if !returnsError(pass, call) {
				return true
			}
			pass.Reportf(call.Pos(), "error from %s silently discarded; handle it, or write `_ = %s(...)` to make the drop explicit", callLabel(recv, name), callLabel(recv, name))
			return true
		})
	}
}

// returnsError reports whether the call's results include an error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface) && types.IsInterface(t)
}
