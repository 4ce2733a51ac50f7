package lint

import (
	"go/ast"
	"go/types"
)

// pkgCall resolves a call through a package selector (`pkg.Fn(...)`) to
// the imported package path and function name. ok is false for method
// calls, locals, conversions and builtins.
func pkgCall(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	ident, okIdent := sel.X.(*ast.Ident)
	if !okIdent {
		return "", "", false
	}
	pkgName, okPkg := info.Uses[ident].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pkgName.Imported().Path(), sel.Sel.Name, true
}

// builtinCall reports whether the call invokes the named predeclared
// builtin (append, make, new, panic, ...).
func builtinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	ident, ok := call.Fun.(*ast.Ident)
	if !ok || ident.Name != name {
		return false
	}
	b, ok := info.Uses[ident].(*types.Builtin)
	return ok && b.Name() == name
}

// calleeSignature returns the signature of a call's target, or nil for
// builtins and type conversions.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// namedIn unwraps pointers and reports the named type and whether it is
// declared in the package with the given import path.
func namedIn(t types.Type, pkgPath string) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, false
	}
	return named, named.Obj().Pkg().Path() == pkgPath
}

// identObj resolves an identifier to its object through uses then defs.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// calleeFunc resolves a call expression to the declared function or
// method it invokes, normalized to the generic origin. Nil for builtins,
// conversions, func-typed values and interface-less cases the type info
// cannot name.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
		case *ast.IndexExpr: // generic instantiation f[T](...)
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		case *ast.Ident:
			if fn, ok := info.Uses[f].(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		default:
			return nil
		}
	}
}

// funcSymbol renders a declared function as a stable cross-package
// symbol: "import/path.Func", "import/path.(*Type).Method" or
// "import/path.(Type).Method". Empty for interface methods and functions
// without a package (builtins, error.Error) — identities the call-graph
// walk cannot pin to a declaration.
func funcSymbol(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
		ptr = "*"
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "" // interface method or unnamed receiver
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return ""
	}
	return fn.Pkg().Path() + ".(" + ptr + named.Obj().Name() + ")." + fn.Name()
}

// declSymbol renders a function declaration in pkg with the same grammar
// as funcSymbol, so AST-side and types-side lookups meet on one key.
func declSymbol(pkg *Package, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg.Path + "." + fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	ptr := ""
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
		ptr = "*"
	}
	switch x := t.(type) {
	case *ast.IndexExpr: // generic receiver Type[T]
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return ""
	}
	return pkg.Path + ".(" + ptr + id.Name + ")." + fn.Name.Name
}

// funcDecls yields every function declaration with a body in the package.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, fn)
			}
		}
	}
	return out
}
