package lint

import (
	"go/ast"
	"go/types"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/perf"
)

// TestRepositoryClean is the self-check: the suite under its shipping
// configuration finds nothing in the repository, and every function an
// internal/perf row certifies allocation-free (Benchmark.NoAlloc) carries
// the `//cqla:noalloc` directive the noalloc analyzer checks. Every rule
// the analyzers enforce is therefore a property of the tree at every
// commit, not a one-time cleanup.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading the repository: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader matched no packages")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(DefaultConfig(), pkgs) {
		t.Errorf("%s", f.StringRelative(cwd))
	}

	var certified []string
	for _, bm := range perf.Benchmarks() {
		certified = append(certified, bm.NoAlloc...)
	}
	if len(certified) == 0 {
		t.Fatal("no perf row names a NoAlloc function; the directive check checks nothing")
	}
	for _, sym := range undirected(pkgs, certified) {
		t.Errorf("%s is certified allocation-free by a perf row but is no loaded function carrying //cqla:noalloc", sym)
	}
	// The check cuts both ways: a function without the directive, as
	// deleting one leaves it, is reported.
	if got := undirected(pkgs, []string{"repro/internal/circuit.BuildDAG"}); len(got) != 1 {
		t.Errorf("circuit.BuildDAG, which carries no directive, reported as %v; want it reported", got)
	}
}

// undirected returns the symbols, in the lint grammar, that resolve to no
// loaded function declaration carrying `//cqla:noalloc`.
func undirected(pkgs []*Package, syms []string) []string {
	directed := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, fn := range funcDecls(pkg) {
			if hasNoallocDirective(fn) {
				directed[declSymbol(pkg, fn)] = true
			}
		}
	}
	var out []string
	for _, sym := range syms {
		if !directed[sym] {
			out = append(out, sym)
		}
	}
	return out
}

// TestNoCodeReachedOnlyByPerf fails when a non-test function is kept alive
// by the internal/perf suite alone: reachable from a perf row but from no
// program. Program roots are every main and init outside internal/perf —
// the benchmark module's main included — and every String, Error,
// MarshalJSON and ServeHTTP method, which the standard library calls
// through interfaces. A row timing code no program runs measures nothing a
// user waits for; delete the code and the row together.
func TestNoCodeReachedOnlyByPerf(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module and the benchmark module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading the repository: %v", err)
	}
	bench, err := Load("../../benchmark", "./...")
	if err != nil {
		t.Fatalf("loading the benchmark module: %v", err)
	}
	const perfPath = "repro/internal/perf"
	for _, sym := range perfOnly(append(pkgs, bench...), perfPath) {
		t.Errorf("%s is reached only from a row of %s; no program runs it", sym, perfPath)
	}

	// The walk cuts both ways: a function only a seed package's init
	// references is reported, and one a program also references is not.
	fixture, err := Load(".", "./testdata/src/reachfix/...")
	if err != nil {
		t.Fatalf("loading the reach fixture: %v", err)
	}
	want := []string{
		fixturePrefix + "reachfix/lib.(*T).PerfMethod",
		fixturePrefix + "reachfix/lib.PerfOnly",
		fixturePrefix + "reachfix/lib.perfHelper",
	}
	if got := perfOnly(fixture, fixturePrefix+"reachfix/seed"); !slices.Equal(got, want) {
		t.Errorf("reachfix: perfOnly = %v, want %v", got, want)
	}
}

// alwaysUsed names the methods the standard library calls through an
// interface the walk cannot see: fmt, errors, encoding/json and net/http.
var alwaysUsed = []string{"String", "Error", "MarshalJSON", "ServeHTTP"}

// perfOnly returns, sorted, the functions declared outside the seed
// package that its package initialization reaches but no program root
// does. A reference is any use of a function or method, called or not; a
// use of an interface method counts as a use of every method of that name.
func perfOnly(pkgs []*Package, seedPath string) []string {
	refs := make(map[string][]string)    // symbol -> symbols it references
	methods := make(map[string][]string) // method name -> method symbols
	var roots []string
	for _, pkg := range pkgs {
		initSym := pkg.Path + ".init"
		if pkg.Path != seedPath {
			roots = append(roots, initSym)
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					sym := declSymbol(pkg, d) // every init of a package is initSym
					if d.Recv != nil {
						methods[d.Name.Name] = append(methods[d.Name.Name], sym)
					}
					if pkg.Types.Name() == "main" && d.Name.Name == "main" && d.Recv == nil {
						roots = append(roots, sym)
					}
					refs[sym] = append(refs[sym], references(pkg.Info, d)...)
				case *ast.GenDecl:
					// Package-level initializers run with the package's init.
					refs[initSym] = append(refs[initSym], references(pkg.Info, d)...)
				}
			}
		}
	}
	for _, name := range alwaysUsed {
		roots = append(roots, "."+name)
	}
	reach := func(from ...string) map[string]bool {
		seen := make(map[string]bool)
		for stack := from; len(stack) > 0; {
			sym := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[sym] {
				continue
			}
			seen[sym] = true
			if name, ok := strings.CutPrefix(sym, "."); ok {
				stack = append(stack, methods[name]...)
				continue
			}
			stack = append(stack, refs[sym]...)
		}
		return seen
	}
	live := reach(roots...)
	var out []string
	for sym := range reach(seedPath + ".init") {
		if _, declared := refs[sym]; declared && !live[sym] && !strings.HasPrefix(sym, seedPath+".") {
			out = append(out, sym)
		}
	}
	slices.Sort(out)
	return out
}

// references returns the symbol of every function and method node uses,
// or ".Name" for a use of an interface method Name.
func references(info *types.Info, node ast.Node) []string {
	var out []string
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			out = append(out, "."+fn.Name())
		} else if sym := funcSymbol(fn.Origin()); sym != "" {
			out = append(out, sym)
		}
		return true
	})
	return out
}

// TestPurityRootsEveryEngine pins the shipping entry set to the engines:
// the purity walk must root at the one evaluation call and reach each
// engine's evaluation function from it, so renaming the call or routing
// an engine around the walk cannot silently shrink what the analyzer
// checks.
func TestPurityRootsEveryEngine(t *testing.T) {
	pkgs, err := Load("../..", "./internal/arch")
	if err != nil {
		t.Fatalf("loading internal/arch: %v", err)
	}
	var findings []Finding
	reached := purityWalk(&Pass{Pkg: pkgs[0], All: pkgs, Cfg: DefaultConfig(), rule: purity.Name, findings: &findings})
	for _, fn := range []string{"Evaluate", "evaluateAnalytic", "evaluateDES"} {
		sym := "repro/internal/arch.(*CompiledWorkload)." + fn
		if !reached[sym] {
			t.Errorf("the purity walk does not reach %s", sym)
		}
	}
}
