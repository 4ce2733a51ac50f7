package lint

import (
	"os"
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
	pkgs, err := LoadTags("../..", "", "./...")
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

// TestPurityRootsEveryEngine pins the shipping entry set to the engines:
// the purity walk must start from the evaluation method of each one, so
// renaming that method cannot silently shrink what the analyzer checks.
func TestPurityRootsEveryEngine(t *testing.T) {
	pkgs, err := LoadTags("../..", "", "./internal/arch")
	if err != nil {
		t.Fatalf("loading internal/arch: %v", err)
	}
	roots := make(map[string]bool)
	for _, sym := range purityRoots(DefaultConfig(), pkgs) {
		roots[sym] = true
	}
	for _, engine := range []string{"analyticEngine", "simEngine"} {
		sym := "repro/internal/arch.(" + engine + ").EvaluateCompiledInto"
		if !roots[sym] {
			t.Errorf("purity walk does not root at %s (roots: %v)", sym, roots)
		}
	}
}
