package lint

import (
	"go/ast"
	"go/types"
)

// detCriticalPackages are the packages whose outputs must be
// byte-identical across runs: statistics and their JSON form, trace
// recordings, workload-spec canonical forms, experiment tables, the HTTP
// service's responses, and the emulator whose record stream traces
// capture.
var detCriticalPackages = []string{
	"internal/stats",
	"internal/trace",
	"internal/wspec",
	"internal/experiments",
	"internal/server",
	"internal/emu",
}

// DetRange flags map iteration whose per-iteration effect is
// order-sensitive — writing to a stream or serializer, appending to a
// slice that is never sorted, sending on a channel — inside
// determinism-critical packages. Order-neutral bodies (counting,
// summing, min/max selection, writing into another map) are not
// flagged, and the collect-then-sort idiom (append keys, sort, then
// iterate the slice — stats.SortedKeys) is recognized as the fix.
var DetRange = &Analyzer{
	Name: "detrange",
	Doc:  "unsorted map iteration reaching serialization or output paths in determinism-critical packages",
	Run:  runDetRange,
}

func runDetRange(pass *Pass) {
	if !pathIn(pass.Pkg.Path, detCriticalPackages) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !isMapType(pass.TypeOf(rs.X)) {
					return true
				}
				if sink := mapRangeSink(pass, fd, rs); sink != "" {
					pass.Reportf(rs.Pos(), "map iteration order is random and %s; sort the keys first (see stats.SortedKeys) or make the consumer order-independent", sink)
				}
				return true
			})
		}
	}
}

// isMapType reports whether t is a map, unwrapping type parameters whose
// constraint mentions maps (so generic helpers like stats.SortedKeys are
// analyzed too).
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	if tp, ok := t.(*types.TypeParam); ok {
		iface, ok := tp.Constraint().Underlying().(*types.Interface)
		if !ok {
			return false
		}
		for i := 0; i < iface.NumEmbeddeds(); i++ {
			emb := iface.EmbeddedType(i)
			if _, ok := emb.Underlying().(*types.Map); ok {
				return true
			}
			if un, ok := emb.(*types.Union); ok {
				for j := 0; j < un.Len(); j++ {
					if _, ok := un.Term(j).Type().Underlying().(*types.Map); ok {
						return true
					}
				}
			}
		}
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// mapRangeSink inspects the loop body for an order-sensitive effect and
// describes the first one found ("" means the body is order-neutral).
func mapRangeSink(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) string {
	var sink string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch nn := n.(type) {
		case *ast.SendStmt:
			sink = "each iteration sends on a channel"
			return false
		case *ast.CallExpr:
			if s := callSink(pass, fd, rs, nn); s != "" {
				sink = s
				return false
			}
		}
		return true
	})
	return sink
}

// callSink classifies one call inside a map-range body.
func callSink(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, call *ast.CallExpr) string {
	// append(dst, ...) into a slice declared outside the loop: ordered
	// collection, unless dst is sorted later in the same function.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			dst, ok := call.Args[0].(*ast.Ident)
			if !ok {
				return ""
			}
			obj := pass.ObjectOf(dst)
			if obj == nil || !obj.Pos().IsValid() || obj.Pos() >= rs.Pos() {
				return "" // loop-local accumulator: out of scope after the loop
			}
			if sortedAfter(pass, fd, rs, obj) {
				return ""
			}
			return "each iteration appends to " + dst.Name + ", which is never sorted afterwards"
		}
		return ""
	}

	name, recv := calleeName(call)
	// Ordered emission through fmt.
	if obj := calleeObject(pass, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		return "each iteration formats output via fmt." + obj.Name()
	}
	// Serialization and stream writes by method name.
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode", "Marshal", "MarshalJSON":
		if recv != "" || name == "Marshal" {
			return "each iteration writes to a stream or serializer (" + callLabel(recv, name) + ")"
		}
	}
	return ""
}

// sortedAfter reports whether obj (a slice) is passed to a sort.* or
// slices.Sort* call after the range statement, anywhere in the enclosing
// function — the collect-then-sort idiom.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		callee := calleeObject(pass, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if p := callee.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if argMentions(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// argMentions reports whether expr references obj (directly or inside a
// conversion / closure argument like sort.Slice(out, func...)).
func argMentions(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// calleeName returns the called function's bare name and, for method
// calls, a receiver label.
func calleeName(call *ast.CallExpr) (name, recv string) {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name, ""
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			return fn.Sel.Name, id.Name
		}
		return fn.Sel.Name, "_"
	}
	return "", ""
}

// calleeObject resolves the called function to its object, or nil.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.ObjectOf(fn)
	case *ast.SelectorExpr:
		return pass.ObjectOf(fn.Sel)
	}
	return nil
}

func callLabel(recv, name string) string {
	if recv == "" {
		return name
	}
	return recv + "." + name
}
