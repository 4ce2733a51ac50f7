package lint

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// fixturePrefix is the import-path prefix of the fixture packages. The
// testdata directory is invisible to `./...` wildcards, so the fixtures
// never leak into a real build — the loader reaches them by explicit
// relative path.
const fixturePrefix = "repro/internal/lint/testdata/src/"

func loadFixtures(t *testing.T, names ...string) []*Package {
	t.Helper()
	patterns := make([]string, len(names))
	for i, n := range names {
		patterns[i] = "./testdata/src/" + n
	}
	pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", names, err)
	}
	return pkgs
}

// runGolden runs the suite under cfg and compares the rendered findings
// against testdata/golden/<name>. `go test -update` rewrites the file.
func runGolden(t *testing.T, name string, cfg Config, pkgs []*Package) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range Run(cfg, pkgs) {
		b.WriteString(f.StringRelative(cwd))
		b.WriteByte('\n')
	}
	got := b.String()

	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -update` after intentional changes): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from %s (run `go test -update` after intentional changes)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestDeterminismGolden(t *testing.T) {
	pkgs := loadFixtures(t, "determfix")
	cfg := Config{DeterminismPkgs: map[string]bool{fixturePrefix + "determfix": true}}
	runGolden(t, "determinism.golden", cfg, pkgs)
}

func TestObsGuardGolden(t *testing.T) {
	pkgs := loadFixtures(t, "obsfix", "obsusefix")
	cfg := Config{ObsPkg: fixturePrefix + "obsfix"}
	runGolden(t, "obsguard.golden", cfg, pkgs)
}

func TestCtxFlowGolden(t *testing.T) {
	pkgs := loadFixtures(t, "ctxfix")
	cfg := Config{CtxPrefixes: []string{fixturePrefix + "ctxfix"}}
	runGolden(t, "ctxflow.golden", cfg, pkgs)
}

func TestNoAllocGolden(t *testing.T) {
	pkgs := loadFixtures(t, "noallocfix")
	runGolden(t, "noalloc.golden", Config{}, pkgs)
}

func TestSuppressGolden(t *testing.T) {
	pkgs := loadFixtures(t, "suppressfix")
	runGolden(t, "suppress.golden", Config{}, pkgs)
}

func TestPurityGolden(t *testing.T) {
	pkgs := loadFixtures(t, "purefix")
	cfg := Config{
		PurityPkgs:    map[string]bool{fixturePrefix + "purefix": true},
		PurityEntries: map[string]bool{"Evaluate": true, "EvaluateCompiled": true},
	}
	runGolden(t, "purity.golden", cfg, pkgs)
}

// TestPurityWithoutRootsIsFinding: an entry set naming no declared method
// leaves the walk without roots. Passing silently would certify nothing,
// so the analyzer reports it instead.
func TestPurityWithoutRootsIsFinding(t *testing.T) {
	pkgs := loadFixtures(t, "purefix")
	cfg := Config{
		PurityPkgs:    map[string]bool{fixturePrefix + "purefix": true},
		PurityEntries: map[string]bool{"Renamed": true},
	}
	var got []Finding
	for _, f := range Run(cfg, pkgs) {
		if f.Rule == "purity" {
			got = append(got, f)
		}
	}
	if len(got) != 1 || !strings.Contains(got[0].Msg, "checks nothing") {
		t.Fatalf("rootless purity walk produced %v, want exactly one no-roots finding", got)
	}
}

func TestGoLeakGolden(t *testing.T) {
	pkgs := loadFixtures(t, "goleakfix")
	cfg := Config{GoleakPkgs: map[string]bool{fixturePrefix + "goleakfix": true}}
	runGolden(t, "goleak.golden", cfg, pkgs)
}

// TestDeterminismScoping pins that the analyzer only fires inside the
// configured package set: the same fixture under an empty config is
// silent.
func TestDeterminismScoping(t *testing.T) {
	pkgs := loadFixtures(t, "determfix")
	if got := Run(Config{}, pkgs); len(got) != 0 {
		t.Errorf("out-of-scope package produced findings: %v", got)
	}
}

// TestCtxExempt pins that CtxExempt removes a package the prefixes would
// otherwise cover.
func TestCtxExempt(t *testing.T) {
	pkgs := loadFixtures(t, "ctxfix")
	cfg := Config{
		CtxPrefixes: []string{fixturePrefix + "ctxfix"},
		CtxExempt:   map[string]bool{fixturePrefix + "ctxfix": true},
	}
	if got := Run(cfg, pkgs); len(got) != 0 {
		t.Errorf("exempt package produced findings: %v", got)
	}
}

func TestParseSuppression(t *testing.T) {
	cases := []struct {
		text   string
		rules  []string
		reason string
		ok     bool
	}{
		{"//lint:ignore-cqla noalloc arena growth", []string{"noalloc"}, "arena growth", true},
		{"//lint:ignore-cqla noalloc", []string{"noalloc"}, "", true},
		{"//lint:ignore-cqla", nil, "", true},
		{"//lint:ignore-cqla determinism,noalloc one reason for both", []string{"determinism", "noalloc"}, "one reason for both", true},
		{"//lint:ignore-cqla determinism, noalloc trailing comma splits on spaces too", []string{"determinism"}, "noalloc trailing comma splits on spaces too", true},
		{"//lint:ignore-cqla noalloc crlf reason\r", []string{"noalloc"}, "crlf reason", true},
		{"// an ordinary comment", nil, "", false},
		{"//lint:ignore SA1019 the staticcheck spelling", nil, "", false},
		// A waiver inside a block comment is commentary, not a waiver.
		{"/* //lint:ignore-cqla noalloc hidden in a block comment */", nil, "", false},
	}
	for _, c := range cases {
		rules, reason, ok := parseSuppression(c.text)
		if strings.Join(rules, "|") != strings.Join(c.rules, "|") || reason != c.reason || ok != c.ok {
			t.Errorf("parseSuppression(%q) = %v, %q, %v; want %v, %q, %v",
				c.text, rules, reason, ok, c.rules, c.reason, c.ok)
		}
	}
}

// parseSynthetic builds a one-file Package straight from source text —
// no type checking — so suppression handling can be probed with inputs
// (CRLF endings) that a checked-in, gofmt-gated fixture cannot carry.
func parseSynthetic(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "synthetic.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing synthetic source: %v", err)
	}
	return &Package{Path: "synthetic", Fset: fset, Files: []*ast.File{f}}
}

func TestSuppressionCRLF(t *testing.T) {
	src := "package p\r\n" +
		"\r\n" +
		"func f() {\r\n" +
		"\t//lint:ignore-cqla determinism windows checkout keeps CRLF\r\n" +
		"\tg()\r\n" +
		"}\r\n" +
		"\r\n" +
		"func g() {}\r\n"
	pkg := parseSynthetic(t, src)
	if bad := badSuppressions(pkg); len(bad) != 0 {
		t.Errorf("CRLF waiver parsed as malformed: %v", bad)
	}
	sups := collectSuppressions([]*Package{pkg})
	f := Finding{Rule: "determinism"}
	f.Pos.Filename = "synthetic.go"
	f.Pos.Line = 5
	if !sups.matches(f) {
		t.Error("CRLF waiver did not suppress the line below it")
	}
}

func TestSuppressionBlockComment(t *testing.T) {
	src := "package p\n" +
		"\n" +
		"func f() {\n" +
		"\t/* //lint:ignore-cqla determinism hidden in a block comment */\n" +
		"\tg()\n" +
		"}\n" +
		"\n" +
		"func g() {}\n"
	pkg := parseSynthetic(t, src)
	sups := collectSuppressions([]*Package{pkg})
	f := Finding{Rule: "determinism"}
	f.Pos.Filename = "synthetic.go"
	for _, line := range []int{4, 5} {
		f.Pos.Line = line
		if sups.matches(f) {
			t.Errorf("block-comment text suppressed a finding on line %d", line)
		}
	}
	if bad := badSuppressions(pkg); len(bad) != 0 {
		t.Errorf("block-comment text reported as malformed waiver: %v", bad)
	}
}

func TestSuppressionStackedAndMultiRule(t *testing.T) {
	src := "package p\n" +
		"\n" +
		"func f() {\n" +
		"\t//lint:ignore-cqla determinism stub one\n" +
		"\t//lint:ignore-cqla noalloc stub two\n" +
		"\t//lint:ignore-cqla ctxflow,obsguard one waiver, two rules\n" +
		"\tg()\n" +
		"}\n" +
		"\n" +
		"func g() {}\n"
	pkg := parseSynthetic(t, src)
	sups := collectSuppressions([]*Package{pkg})
	f := Finding{}
	f.Pos.Filename = "synthetic.go"
	f.Pos.Line = 7
	for _, rule := range []string{"determinism", "noalloc", "ctxflow", "obsguard"} {
		f.Rule = rule
		if !sups.matches(f) {
			t.Errorf("stacked waiver run did not suppress rule %q on the statement line", rule)
		}
	}
	// The run must not bleed past an interposed non-waiver line.
	f.Pos.Line = 10
	f.Rule = "determinism"
	if sups.matches(f) {
		t.Error("waiver run suppressed a finding beyond the statement it covers")
	}
}

func TestWriteGitHub(t *testing.T) {
	f := Finding{Rule: "goleak", Msg: "100% fire-and-forget,\nsecond line"}
	f.Pos.Filename = "/repo/pkg/a.go"
	f.Pos.Line = 9
	var b strings.Builder
	if err := WriteGitHub(&b, "/repo", []Finding{f}); err != nil {
		t.Fatal(err)
	}
	want := "::error file=pkg/a.go,line=9,title=cqlalint/goleak::100%25 fire-and-forget,%0Asecond line\n"
	if b.String() != want {
		t.Errorf("github format:\n got %q\nwant %q", b.String(), want)
	}
}

func TestStringRelative(t *testing.T) {
	f := Finding{Rule: "determinism", Msg: "m"}
	f.Pos.Filename = "/a/b/c.go"
	f.Pos.Line = 7
	if got := f.StringRelative("/a"); got != "b/c.go:7: [determinism] m" {
		t.Errorf("relative form = %q", got)
	}
	if got := f.StringRelative("/x/y"); got != "/a/b/c.go:7: [determinism] m" {
		t.Errorf("outside-dir form = %q", got)
	}
	if got := f.StringRelative(""); got != "/a/b/c.go:7: [determinism] m" {
		t.Errorf("empty-dir form = %q", got)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(".", "./testdata/src/nosuchpkg"); err == nil {
		t.Error("loading a nonexistent package succeeded")
	}

	// A package that fails to type-check comes back as a LoadError whose
	// diagnostics carry file:line positions — the exit-2 path CI logs.
	_, err := Load(".", "./testdata/src/brokenfix")
	le, ok := err.(*LoadError)
	if !ok {
		t.Fatalf("broken package returned %T (%v), want *LoadError", err, err)
	}
	if len(le.Diags) == 0 {
		t.Fatal("LoadError carries no diagnostics")
	}
	if d := le.Diags[0]; !strings.Contains(d, "brokenfix.go:6") || !strings.Contains(d, "undefinedType") {
		t.Errorf("diagnostic lacks position or cause: %q", d)
	}
	if !strings.Contains(le.Error(), "undefinedType") {
		t.Errorf("LoadError.Error() = %q", le.Error())
	}
}

func TestAnalyzersListed(t *testing.T) {
	want := []string{"determinism", "obsguard", "ctxflow", "noalloc", "purity", "goleak"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc line", a.Name)
		}
	}
}
