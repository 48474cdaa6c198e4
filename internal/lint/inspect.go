package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// inspectWithParents walks root in depth-first order calling fn with each
// node and its ancestor stack (outermost first, excluding the node
// itself). Returning false skips the node's children.
func inspectWithParents(root ast.Node, fn func(n ast.Node, parents []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Children are skipped, so Inspect sends no closing nil for
			// this node: do not push it.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// pkgFuncCall reports whether call invokes the package-level function
// pkgPath.name, resolving through the type-checker when possible and
// falling back to the syntactic `<pkgIdent>.<name>` shape when type
// information is incomplete (e.g. in golden fixtures).
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if obj := info.Uses[sel.Sel]; obj != nil {
		if fn, ok := obj.(*types.Func); ok {
			return fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
		}
	}
	// Syntactic fallback: the identifier matches the package's base name
	// and resolves to nothing local.
	base := pkgPath
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return id.Name == base && info.Uses[id] == nil && info.Defs[id] == nil
}

// namedTypePath returns the package path and name of t's core named type
// (pointers dereferenced), or ("", "") when t is not named.
func namedTypePath(t types.Type) (pkgPath, name string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}
