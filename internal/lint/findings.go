package lint

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// WriteGitHub renders the findings as GitHub Actions workflow commands
// (`::error file=…,line=…`), so a CI run annotates the offending lines on
// the PR diff instead of burying them in a log.
func WriteGitHub(w io.Writer, dir string, findings []Finding) error {
	for _, f := range findings {
		_, err := fmt.Fprintf(w, "::error file=%s,line=%d,title=cqlalint/%s::%s\n",
			githubEscapeProperty(relName(dir, f.Pos.Filename)), f.Pos.Line,
			githubEscapeProperty(f.Rule), githubEscapeData(f.Msg))
		if err != nil {
			return err
		}
	}
	return nil
}

// relName is the path-relativization shared by every output format: the
// path relative to dir when it is inside dir, unchanged otherwise.
func relName(dir, name string) string {
	if dir == "" {
		return name
	}
	rel, err := filepath.Rel(dir, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}

// githubEscapeData escapes a workflow-command message per the Actions
// toolkit rules.
func githubEscapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// githubEscapeProperty escapes a workflow-command property value, which
// additionally reserves ':' and ','.
func githubEscapeProperty(s string) string {
	s = githubEscapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
