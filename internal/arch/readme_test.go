package arch_test

import (
	"os"
	"strings"
	"testing"
)

// TestREADMEExamplesVerbatim holds README's arch snippets to the examples
// this package compiles and checks: every Go block in README that
// declares an Example function must appear verbatim in example_test.go.
func TestREADMEExamplesVerbatim(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	examples, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(string(readme), "```go\n")[1:]
	found := 0
	for _, b := range blocks {
		code, _, _ := strings.Cut(b, "```")
		if !strings.HasPrefix(code, "func Example") {
			continue
		}
		found++
		if !strings.Contains(string(examples), code) {
			name, _, _ := strings.Cut(code, "(")
			t.Errorf("README's %s is not a verbatim copy of example_test.go", name)
		}
	}
	if found != 2 {
		t.Errorf("README carries %d Example snippets, want 2", found)
	}
}
