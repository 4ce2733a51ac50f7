package lint

import (
	"go/ast"
	"go/types"
)

// noAlloc checks every function carrying the `//cqla:noalloc` directive
// for constructs known to allocate, so the hot paths that internal/perf's
// NoAlloc rows measure allocation-free stay that way on every edit — not
// just where a measurement happens to execute.
//
// Flagged constructs:
//
//   - make, new, goroutine launches, and slice/map composite literals
//     (including &T{...}) — unconditional heap traffic.
//   - fmt.* calls — formatting allocates on every path.
//   - string concatenation (non-constant `+` on strings) and
//     string<->[]byte/[]rune conversions.
//   - func literals that capture enclosing variables — the closure and
//     its captured cells move to the heap.
//   - interface boxing at call sites: passing a concrete value where the
//     callee takes an interface heap-allocates the box. (panic's operand
//     is exempt: the failure path's allocation is moot.)
//   - appends, unless the destination is self-appended pre-allocated
//     storage: `x = append(x, ...)` where x is a struct field, a
//     parameter, or a local slice made with an explicit capacity, or an
//     `append(buf[:0], ...)`-style reuse of an existing backing array.
//
// Cold-path allocations inside a noalloc function (arena growth on first
// use, panic formatting) are waived case by case with
// `//lint:ignore-cqla noalloc <reason>`, keeping every exception written
// down next to the code that needs it.
var noAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions marked //cqla:noalloc must not contain known-allocating constructs",
	Run:  runNoAlloc,
}

func runNoAlloc(p *Pass) {
	for _, fn := range funcDecls(p.Pkg) {
		if hasNoallocDirective(fn) {
			checkNoAllocBody(p, fn)
			checkNoAllocAppends(p, fn)
		}
	}
}

func checkNoAllocBody(p *Pass, fn *ast.FuncDecl) {
	info := p.Pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.GoStmt:
			p.Reportf(node.Pos(), "go statement in noalloc function %s: launching a goroutine allocates", fn.Name.Name)
		case *ast.FuncLit:
			reportClosureCaptures(p, fn, node)
		case *ast.CompositeLit:
			if tv, ok := info.Types[node]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					p.Reportf(node.Pos(), "%s literal in noalloc function %s allocates", typeKindName(tv.Type), fn.Name.Name)
				}
			}
		case *ast.UnaryExpr:
			if node.Op.String() == "&" {
				if _, ok := node.X.(*ast.CompositeLit); ok {
					p.Reportf(node.Pos(), "address of composite literal in noalloc function %s allocates", fn.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if node.Op.String() == "+" {
				if tv, ok := info.Types[node]; ok && tv.Value == nil && isStringType(tv.Type) {
					p.Reportf(node.Pos(), "string concatenation in noalloc function %s allocates", fn.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkNoAllocCall(p, fn, node)
		}
		return true
	})
}

func checkNoAllocCall(p *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	info := p.Pkg.Info
	switch {
	case builtinCall(info, call, "make"):
		p.Reportf(call.Pos(), "make in noalloc function %s allocates", fn.Name.Name)
		return
	case builtinCall(info, call, "new"):
		p.Reportf(call.Pos(), "new in noalloc function %s allocates", fn.Name.Name)
		return
	case builtinCall(info, call, "append"):
		// Self-appends to pre-allocated storage are the reuse idiom the
		// hot paths are built on and are checked by checkNoAllocAppend
		// from the enclosing statement; nothing to do here — the
		// assignment form decides.
		return
	}
	if path, name, ok := pkgCall(info, call); ok && path == "fmt" {
		p.Reportf(call.Pos(), "fmt.%s in noalloc function %s allocates; format off the hot path", name, fn.Name.Name)
		return
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		checkAllocatingConversion(p, fn, call, tv.Type)
		return
	}
	checkInterfaceBoxing(p, fn, call)
}

// checkAllocatingConversion flags string<->[]byte/[]rune conversions,
// which copy into fresh storage.
func checkAllocatingConversion(p *Pass, fn *ast.FuncDecl, call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src, ok := p.Pkg.Info.Types[call.Args[0]]
	if !ok || src.Value != nil {
		return
	}
	if isStringType(target) && isByteOrRuneSlice(src.Type) || isByteOrRuneSlice(target) && isStringType(src.Type) {
		p.Reportf(call.Pos(), "string/slice conversion in noalloc function %s allocates a copy", fn.Name.Name)
	}
}

// checkInterfaceBoxing flags concrete values passed where the callee's
// signature takes an interface.
func checkInterfaceBoxing(p *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	info := p.Pkg.Info
	if builtinCall(info, call, "panic") {
		return // the failure path's box is moot
	}
	sig := calleeSignature(info, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		param := paramTypeAt(sig, i)
		if param == nil || !types.IsInterface(param) {
			continue
		}
		// A generic type parameter's underlying type is its constraint
		// interface, but instantiation substitutes a concrete type — no
		// box is built.
		if _, isTypeParam := param.(*types.TypeParam); isTypeParam {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.IsNil() || types.IsInterface(tv.Type.Underlying()) {
			continue
		}
		if _, isTypeParam := tv.Type.(*types.TypeParam); isTypeParam {
			continue
		}
		p.Reportf(arg.Pos(), "argument boxes %s into interface %s in noalloc function %s", tv.Type, param, fn.Name.Name)
	}
}

// reportClosureCaptures flags variables a func literal captures from the
// enclosing function.
func reportClosureCaptures(p *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) {
	info := p.Pkg.Info
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || reported[obj] {
			return true
		}
		// Captured: declared inside the enclosing function but outside
		// the literal. Package-level variables are shared, not captured.
		if obj.Pos() >= fn.Pos() && obj.Pos() < fn.End() && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			reported[obj] = true
			p.Reportf(id.Pos(), "closure captures %s in noalloc function %s; the capture allocates", obj.Name(), fn.Name.Name)
		}
		return true
	})
}

// checkNoAllocAppends classifies every append in the function by the
// statement it appears in — a second walk so the assignment context is
// visible when deciding whether an append reuses pre-allocated storage.
func checkNoAllocAppends(p *Pass, fn *ast.FuncDecl) {
	info := p.Pkg.Info
	// Collect locals declared with an explicit capacity: make(T, n, c).
	preallocated := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok.String() != ":=" {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !builtinCall(info, call, "make") || len(call.Args) < 3 || i >= len(assign.Lhs) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					preallocated[obj] = true
				}
			}
		}
		return true
	})

	seen := make(map[*ast.CallExpr]bool)
	markSelfAppend := func(lhs ast.Expr, call *ast.CallExpr) {
		if !builtinCall(info, call, "append") || len(call.Args) == 0 {
			return
		}
		seen[call] = true
		dst := call.Args[0]
		// append(buf[:0], ...) reuses buf's backing array.
		if slice, ok := dst.(*ast.SliceExpr); ok {
			if isZeroReslice(slice) {
				return
			}
			dst = slice.X
		}
		if !sameStorage(info, lhs, dst) {
			p.Reportf(call.Pos(), "append writes into a different destination in noalloc function %s; growing a fresh slice allocates", fn.Name.Name)
			return
		}
		// Self-append to a field (`h.a = append(h.a, v)`) is the
		// pre-sized-by-constructor arena idiom: allowed. For a plain
		// identifier, the storage must be a caller-provided parameter or
		// a local made with an explicit capacity.
		d, ok := dst.(*ast.Ident)
		if !ok {
			return
		}
		obj := identObj(info, d)
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok && isParamOf(v, fn) {
			return // caller-provided buffer
		}
		if !preallocated[obj] {
			p.Reportf(call.Pos(), "append into %s, which has no pre-allocated capacity, in noalloc function %s", d.Name, fn.Name.Name)
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && i < len(assign.Lhs) {
				markSelfAppend(assign.Lhs[i], call)
			}
		}
		return true
	})
	// Appends not consumed by a simple assignment (passed on, returned,
	// fresh-defined) escape into new storage.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !builtinCall(info, call, "append") || seen[call] {
			return true
		}
		p.Reportf(call.Pos(), "append result escapes into new storage in noalloc function %s", fn.Name.Name)
		return true
	})
}

// isZeroReslice reports x[:0] / x[0:0]-style reslices.
func isZeroReslice(s *ast.SliceExpr) bool {
	if s.High == nil {
		return false
	}
	lit, ok := s.High.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// sameStorage reports whether lhs and dst name the same variable or the
// same field of the same base identifier — the `x = append(x, ...)`
// self-append shape.
func sameStorage(info *types.Info, lhs, dst ast.Expr) bool {
	switch l := lhs.(type) {
	case *ast.Ident:
		d, ok := dst.(*ast.Ident)
		if !ok {
			return false
		}
		lo, do := identObj(info, l), identObj(info, d)
		return lo != nil && lo == do
	case *ast.SelectorExpr:
		d, ok := dst.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		lb, okL := l.X.(*ast.Ident)
		db, okD := d.X.(*ast.Ident)
		if !okL || !okD {
			return false
		}
		return identObj(info, lb) == identObj(info, db) && l.Sel.Name == d.Sel.Name
	}
	return false
}

func isParamOf(v *types.Var, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	pos := v.Pos()
	return pos >= fn.Type.Params.Pos() && pos <= fn.Type.Params.End()
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func typeKindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
