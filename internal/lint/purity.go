package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// purity pins the paper's core contract: the analytic model is a pure
// function of its inputs. Everything reachable from the evaluation call,
// CompiledWorkload.Evaluate, in the analytic-model packages is walked as
// a call graph over the loaded type info, and three classes of impurity are
// flagged:
//
//   - package-level mutable state: writes always; reads when the variable
//     is assigned anywhere in the model packages or is a sync primitive
//     (an effectively-constant sentinel assigned only at its declaration
//     is allowed);
//   - environment and file IO: calls into os, io/ioutil or os/exec;
//   - racy memoization: mutating a receiver's map without a preceding
//     mutex Lock in the same function body.
//
// The documented memoization layer (PurityExemptPkgs) is excluded: its
// types exist precisely to make caching safe, and their own tests cover
// that. Calls leaving PurityPkgs are trusted — foreign packages are
// governed by their own analyzers. This is the precision vet cannot
// offer: an unreachable helper may do anything, while a sin three calls
// deep under an entry point is still a finding at the line that commits
// it. A walk with no roots would pass vacuously, so loaded purity
// packages declaring none of the PurityEntries methods are a finding too.
var purity = &Analyzer{
	Name:  "purity",
	Doc:   "code reachable from CompiledWorkload.Evaluate must be a pure function of its inputs",
	Run:   func(p *Pass) { purityWalk(p) },
	Suite: true,
}

// impureIOPkgs are the packages whose mere invocation makes an
// evaluation depend on something other than its arguments.
var impureIOPkgs = map[string]bool{
	"os":        true,
	"io/ioutil": true,
	"os/exec":   true,
}

// purityScope is the precomputed view of the model packages the walk
// resolves against.
type purityScope struct {
	p *Pass
	// decls indexes every function declaration in PurityPkgs by its
	// cross-package symbol, so a *types.Func imported from export data
	// and the declaring package's own object meet on one key.
	decls map[string]declIn
	// mutated holds the symbols ("path.var") of package-level variables
	// assigned, incremented or address-taken anywhere in PurityPkgs —
	// reading one of these from the evaluation path is impure.
	mutated map[string]bool
}

type declIn struct {
	pkg *Package
	fn  *ast.FuncDecl
}

// purityWalk runs the purity check over the pass's load and returns the
// symbols of every function the walk visited: the roots and the
// model-package functions reachable from them.
func purityWalk(p *Pass) map[string]bool {
	cfg := p.Cfg
	if len(cfg.PurityPkgs) == 0 || len(cfg.PurityEntries) == 0 {
		return nil
	}
	scope := &purityScope{
		p:       p,
		decls:   make(map[string]declIn),
		mutated: make(map[string]bool),
	}
	var first *Package // the first loaded purity package, by path
	for _, pkg := range p.All {
		if !cfg.PurityPkgs[pkg.Path] {
			continue
		}
		if first == nil || pkg.Path < first.Path {
			first = pkg
		}
		for _, fn := range funcDecls(pkg) {
			sym := declSymbol(pkg, fn)
			if sym == "" {
				continue
			}
			scope.decls[sym] = declIn{pkg: pkg, fn: fn}
			scope.recordMutations(pkg, fn)
		}
	}
	entries := purityRoots(cfg, p.All)
	if first != nil && len(entries) == 0 && len(first.Files) > 0 {
		names := make([]string, 0, len(cfg.PurityEntries))
		for name := range cfg.PurityEntries {
			names = append(names, name)
		}
		sort.Strings(names)
		p.reportAt(first.Fset.Position(first.Files[0].Package),
			"no method named %s is declared in the purity packages; the walk has no roots and checks nothing", strings.Join(names, "/"))
		return nil
	}

	visited := make(map[string]bool)
	queue := entries
	for len(queue) > 0 {
		sym := queue[0]
		queue = queue[1:]
		if visited[sym] {
			continue
		}
		visited[sym] = true
		d := scope.decls[sym]
		queue = append(queue, scope.checkFunc(d.pkg, d.fn)...)
	}
	return visited
}

// purityRoots returns the sorted symbols the walk starts from: every
// method declared in a loaded PurityPkgs package whose name PurityEntries
// lists.
func purityRoots(cfg Config, pkgs []*Package) []string {
	var roots []string
	for _, pkg := range pkgs {
		if !cfg.PurityPkgs[pkg.Path] {
			continue
		}
		for _, fn := range funcDecls(pkg) {
			if fn.Recv != nil && cfg.PurityEntries[fn.Name.Name] {
				if sym := declSymbol(pkg, fn); sym != "" {
					roots = append(roots, sym)
				}
			}
		}
	}
	sort.Strings(roots)
	return roots
}

// recordMutations notes every package-level variable of a model package
// that fn assigns, increments or takes the address of.
func (s *purityScope) recordMutations(pkg *Package, fn *ast.FuncDecl) {
	note := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if v := pkgLevelVar(identObj(pkg.Info, id)); v != nil {
			s.mutated[v.Pkg().Path()+"."+v.Name()] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				note(lhs)
			}
		case *ast.IncDecStmt:
			note(node.X)
		case *ast.UnaryExpr:
			if node.Op.String() == "&" {
				note(node.X)
			}
		}
		return true
	})
}

// checkFunc flags the impurities committed directly by fn and returns the
// symbols of the model-package callees the walk must visit next.
func (s *purityScope) checkFunc(pkg *Package, fn *ast.FuncDecl) []string {
	cfg := s.p.Cfg
	info := pkg.Info
	var next []string

	// The write/read classification needs to know which identifier uses
	// sit on an assignment's left side.
	written := make(map[*ast.Ident]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					written[id] = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := node.X.(*ast.Ident); ok {
				written[id] = true
			}
		}
		return true
	})

	// One finding per (variable, access kind) per function keeps a hot
	// loop over a global from flooding the report.
	type accessKey struct {
		sym   string
		write bool
	}
	reported := make(map[accessKey]bool)

	lockBefore := mutexLockPositions(info, fn)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.Ident:
			v := pkgLevelVar(identObj(info, node))
			if v == nil || !cfg.PurityPkgs[v.Pkg().Path()] {
				return true
			}
			sym := v.Pkg().Path() + "." + v.Name()
			write := written[node]
			if !write && !s.mutated[sym] && !isSyncType(v.Type()) {
				return true // effectively constant: read-only sentinel
			}
			key := accessKey{sym: sym, write: write}
			if reported[key] {
				return true
			}
			reported[key] = true
			verb := "reads"
			if write {
				verb = "writes"
			}
			s.p.Reportf(node.Pos(), "%s %s package-level mutable state %s; the analytic model must be a pure function of its inputs", fn.Name.Name, verb, v.Name())
		case *ast.CallExpr:
			next = append(next, s.checkCall(pkg, fn, node)...)
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				s.checkReceiverMapWrite(pkg, fn, lhs, lockBefore)
			}
		}
		return true
	})
	return next
}

// checkCall classifies one call: impure IO, an exempt memo call, or a
// model-package callee to descend into. delete(recv.m, k) is routed to
// the receiver-map check.
func (s *purityScope) checkCall(pkg *Package, fn *ast.FuncDecl, call *ast.CallExpr) []string {
	cfg := s.p.Cfg
	info := pkg.Info
	if builtinCall(info, call, "delete") && len(call.Args) > 0 {
		s.checkReceiverMapWrite(pkg, fn, call.Args[0], mutexLockPositions(info, fn))
		return nil
	}
	callee := calleeFunc(info, call)
	if callee == nil || callee.Pkg() == nil {
		return nil
	}
	path := callee.Pkg().Path()
	if impureIOPkgs[path] {
		s.p.Reportf(call.Pos(), "%s calls %s.%s; the evaluation path must not read the environment or touch files", fn.Name.Name, path, callee.Name())
		return nil
	}
	if !cfg.PurityPkgs[path] || cfg.PurityExemptPkgs[path] {
		return nil
	}
	sym := funcSymbol(callee)
	if sym == "" {
		return nil
	}
	if _, ok := s.decls[sym]; !ok {
		return nil // interface method or declaration outside the load
	}
	return []string{sym}
}

// checkReceiverMapWrite flags `recv.field[k] = v` (and delete on the
// same shape) when no mutex Lock call appears earlier in the function —
// the memoization race the exempt types exist to prevent.
func (s *purityScope) checkReceiverMapWrite(pkg *Package, fn *ast.FuncDecl, target ast.Expr, lockBefore func(n ast.Node) bool) {
	idx, ok := target.(*ast.IndexExpr)
	if !ok {
		return
	}
	info := pkg.Info
	tv, ok := info.Types[idx.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	recv := receiverObject(info, fn)
	if recv == nil || !rootsAt(info, idx.X, recv) {
		return
	}
	if lockBefore(idx) {
		return // write under a held mutex: the allowed memo idiom
	}
	s.p.Reportf(idx.Pos(), "%s mutates its receiver's map outside a held mutex; concurrent evaluations race", fn.Name.Name)
}

// receiverObject returns the declared receiver variable of fn, if any.
func receiverObject(info *types.Info, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fn.Recv.List[0].Names[0]]
}

// rootsAt reports whether the expression is the receiver itself or a
// selector chain rooted at it (recv.m, recv.a.b).
func rootsAt(info *types.Info, e ast.Expr, recv types.Object) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return identObj(info, x) == recv
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// mutexLockPositions returns a predicate reporting whether any `.Lock()`
// call textually precedes the node inside fn — the coarse but readable
// stand-in for lock-held analysis: the memo idiom takes the lock at the
// top and defers the unlock.
func mutexLockPositions(info *types.Info, fn *ast.FuncDecl) func(n ast.Node) bool {
	var locks []int
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
			locks = append(locks, int(call.Pos()))
		}
		return true
	})
	return func(n ast.Node) bool {
		for _, l := range locks {
			if l < int(n.Pos()) {
				return true
			}
		}
		return false
	}
}

// pkgLevelVar reports obj as a package-level variable, nil otherwise.
func pkgLevelVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// isSyncType reports types from sync/sync.atomic — primitives whose very
// presence at package level is shared mutable state even when the
// variable itself is never reassigned.
func isSyncType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "sync" || strings.HasPrefix(path, "sync/")
}
