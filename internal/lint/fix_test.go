package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFixSource(t *testing.T) {
	src := []byte(strings.Join([]string{
		"package p",
		"",
		"func f() {",
		"\tbad()",
		"}",
		"",
	}, "\n"))
	findings := []Finding{
		{Rule: "determinism", Msg: "first"},
		{Rule: "noalloc", Msg: "second"},
		{Rule: "determinism", Msg: "duplicate rule on the same line collapses"},
	}
	for i := range findings {
		findings[i].Pos.Filename = "p.go"
		findings[i].Pos.Line = 4
	}
	got := string(FixSource(src, findings))
	want := strings.Join([]string{
		"package p",
		"",
		"func f() {",
		"\t//lint:ignore-cqla determinism TODO(triage): first",
		"\t//lint:ignore-cqla noalloc TODO(triage): second",
		"\tbad()",
		"}",
		"",
	}, "\n")
	if got != want {
		t.Errorf("FixSource:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if out := FixSource(src, nil); string(out) != string(src) {
		t.Error("FixSource without findings rewrote the source")
	}
}

// TestFixRoundTrip is the acceptance loop: run the suite on a dirty
// package in a throwaway module, apply -fix, and the next run is clean;
// apply -fix again and no byte changes. The stacked stubs also prove the
// suppression matcher accepts a run of waiver lines above one statement.
func TestFixRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixmod\n\ngo 1.21\n")
	src := strings.Join([]string{
		"package fixmod",
		"",
		`import "time"`,
		"",
		"// Stamp reads the wall clock once.",
		"func Stamp() int64 {",
		"\treturn time.Now().UnixNano()",
		"}",
		"",
		"// Twice reads it twice on one line: one stub must cover both.",
		"func Twice() int64 {",
		"\treturn time.Now().UnixNano() + time.Now().Unix()",
		"}",
		"",
	}, "\n")
	path := filepath.Join(dir, "fixmod.go")
	writeFile(t, path, src)
	cfg := Config{DeterminismPkgs: map[string]bool{"fixmod": true}}

	load := func() []*Package {
		pkgs, err := LoadTags(dir, "", "./...")
		if err != nil {
			t.Fatalf("loading the temp module: %v", err)
		}
		return pkgs
	}

	findings := Run(cfg, load())
	if len(findings) != 3 {
		t.Fatalf("dirty fixture produced %d findings, want 3: %v", len(findings), findings)
	}
	files, stubbed, err := ApplyFix(findings)
	if err != nil {
		t.Fatal(err)
	}
	if files != 1 || stubbed != 3 {
		t.Errorf("ApplyFix = %d files, %d stubbed", files, stubbed)
	}

	after := readFile(t, path)
	if got := Run(cfg, load()); len(got) != 0 {
		t.Errorf("fixed fixture still has findings: %v", got)
	}

	// Idempotence: a second fix pass sees no findings and writes nothing.
	files, stubbed, err = ApplyFix(Run(cfg, load()))
	if err != nil {
		t.Fatal(err)
	}
	if files != 0 || stubbed != 0 {
		t.Errorf("second ApplyFix rewrote %d files (%d stubs)", files, stubbed)
	}
	if again := readFile(t, path); again != after {
		t.Errorf("second fix pass changed bytes:\n--- first ---\n%s--- second ---\n%s", after, again)
	}

	// Every stub carries a reason, so none of them is itself a finding.
	if !strings.Contains(after, "//lint:ignore-cqla determinism TODO(triage):") {
		t.Errorf("stub missing from fixed source:\n%s", after)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
