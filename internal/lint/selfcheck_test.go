package lint

import (
	"os"
	"strings"
	"testing"

	"repro/internal/perf"
)

// TestRepositoryClean is the self-check: the suite under its shipping
// configuration — including the budget-aware noalloc coupling to the
// checked-in BENCH.json — finds nothing in the repository. Every rule
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
	cfg := DefaultConfig()
	cfg.Budgets, err = LoadBudgets("../../BENCH.json")
	if err != nil {
		t.Fatalf("loading the checked-in BENCH.json: %v", err)
	}
	cfg.BudgetPath = "../../BENCH.json"
	cfg.MeasuredFuncs = perf.MeasuredFunctions()
	for _, f := range Run(cfg, pkgs) {
		t.Errorf("%s", f.StringRelative(cwd))
	}

	// The coupling cuts both ways: remapping a zero-alloc benchmark to a
	// function without the directive must fail, which is exactly what
	// deleting a //cqla:noalloc directive from the real mapping does.
	broken := cfg
	broken.MeasuredFuncs = make(map[string][]string, len(cfg.MeasuredFuncs))
	for k, v := range cfg.MeasuredFuncs {
		broken.MeasuredFuncs[k] = v
	}
	broken.MeasuredFuncs["BuildDAGInto"] = []string{"repro/internal/circuit.BuildDAG"}
	got := Run(broken, pkgs)
	if len(got) != 1 || !strings.Contains(got[0].Msg, "carries no //cqla:noalloc directive") {
		t.Errorf("deleting a directive (simulated by remapping) produced %v, want exactly one missing-directive finding", got)
	}
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
