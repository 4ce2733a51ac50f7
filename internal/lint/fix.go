package lint

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// FixSource inserts a `//lint:ignore-cqla <rule> TODO(triage): <msg>`
// suppression stub above each finding's line and returns the rewritten
// source. Stubs for the same line stack on consecutive lines (the
// suppression matcher scans the whole run), duplicate (line, rule) pairs
// collapse to one stub, and each stub copies the flagged line's
// indentation so gofmt is a no-op. FixSource is pure; ApplyFix does the
// file IO.
func FixSource(src []byte, findings []Finding) []byte {
	if len(findings) == 0 {
		return src
	}
	// line -> rule -> first message; one stub per (line, rule).
	byLine := make(map[int]map[string]string)
	for _, f := range findings {
		if f.Pos.Line <= 0 {
			continue
		}
		rules := byLine[f.Pos.Line]
		if rules == nil {
			rules = make(map[string]string)
			byLine[f.Pos.Line] = rules
		}
		if _, ok := rules[f.Rule]; !ok {
			rules[f.Rule] = f.Msg
		}
	}
	lines := strings.Split(string(src), "\n")
	nums := make([]int, 0, len(byLine))
	for n := range byLine {
		if n <= len(lines) {
			nums = append(nums, n)
		}
	}
	// Bottom-up so earlier insertions do not shift later line numbers.
	sort.Sort(sort.Reverse(sort.IntSlice(nums)))
	for _, n := range nums {
		target := lines[n-1]
		indent := target[:len(target)-len(strings.TrimLeft(target, " \t"))]
		rules := make([]string, 0, len(byLine[n]))
		for r := range byLine[n] {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		stubs := make([]string, 0, len(rules))
		for _, r := range rules {
			stubs = append(stubs, fmt.Sprintf("%s//lint:ignore-cqla %s TODO(triage): %s", indent, r, sanitizeReason(byLine[n][r])))
		}
		lines = append(lines[:n-1], append(stubs, lines[n-1:]...)...)
	}
	return []byte(strings.Join(lines, "\n"))
}

// sanitizeReason keeps a finding message legal inside a line comment.
func sanitizeReason(msg string) string {
	msg = strings.ReplaceAll(msg, "\r", " ")
	msg = strings.ReplaceAll(msg, "\n", " ")
	return strings.TrimSpace(msg)
}

// ApplyFix writes a suppression stub for every finding, each of which
// points into a Go source file, and reports how many files were rewritten
// and how many findings were stubbed.
func ApplyFix(findings []Finding) (files, stubbed int, err error) {
	byFile := make(map[string][]Finding)
	for _, f := range findings {
		byFile[f.Pos.Filename] = append(byFile[f.Pos.Filename], f)
	}
	names := make([]string, 0, len(byFile))
	for name := range byFile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src, readErr := os.ReadFile(name)
		if readErr != nil {
			return files, stubbed, readErr
		}
		fixed := FixSource(src, byFile[name])
		if string(fixed) == string(src) {
			continue
		}
		if writeErr := os.WriteFile(name, fixed, 0o644); writeErr != nil {
			return files, stubbed, writeErr
		}
		files++
		stubbed += len(byFile[name])
	}
	return files, stubbed, nil
}
