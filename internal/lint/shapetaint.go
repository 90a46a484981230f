package lint

import (
	"go/ast"
)

// ShapeTaint enforces the invariant PRs 5-8 state in prose: execution
// shape — worker counts, progress hooks, cluster placement — never enters a
// cache key or canonical form, because results are byte-identical across
// all of them and keying on them would fragment (or worse, poison) the
// content-addressed caches. Fields annotated //sdv:shape must not be
// read inside functions annotated //sdv:cachekey, nor may a struct
// containing shape fields be handed whole to a formatter or serializer
// there.
var ShapeTaint = &Analyzer{
	Name: "shapetaint",
	Doc:  "//sdv:shape fields must never flow into //sdv:cachekey computations",
	Run:  runShapeTaint,
}

func runShapeTaint(pass *Pass) {
	if len(pass.Ann.Shape) == 0 && len(pass.Ann.ShapeStructs) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Pkg.Info.Defs[fd.Name]
			if obj == nil || !pass.Ann.CacheKey[obj] {
				continue
			}
			checkCacheKeyFunc(pass, fd)
		}
	}
}

func checkCacheKeyFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.SelectorExpr:
			if obj := pass.ObjectOf(nn.Sel); obj != nil {
				if name, ok := pass.Ann.Shape[obj]; ok {
					pass.Reportf(nn.Pos(), "execution-shape field %s (//sdv:shape) read inside cache-key function %s; shape must never reach cache keys", name, fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			// Handing a whole struct that contains shape fields to a
			// serializer or formatter leaks the shape implicitly.
			if !isSerializingCall(pass, nn) {
				return true
			}
			for _, arg := range nn.Args {
				if fields := pass.Ann.shapeStruct(pass.TypeOf(arg)); len(fields) > 0 {
					pass.Reportf(arg.Pos(), "whole struct with //sdv:shape fields %v serialized inside cache-key function %s; serialize the semantic fields explicitly", fields, fd.Name.Name)
				}
			}
		}
		return true
	})
}

// isSerializingCall reports whether the call renders its arguments:
// encoding/json Marshal/Encode, fmt formatting, or a hash/stream Write.
func isSerializingCall(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeObject(pass, call)
	if obj != nil && obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "fmt", "encoding/json", "encoding/gob":
			return true
		}
	}
	name, _ := calleeName(call)
	switch name {
	case "Write", "Encode", "Marshal", "MarshalJSON", "Sum", "Fprintf", "Sprintf":
		return true
	}
	return false
}
