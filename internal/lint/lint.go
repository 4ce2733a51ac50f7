// Package lint is the repository's static-analysis suite: vet-style
// analyzers over the package tree enforcing invariants the test suite can
// only spot-check dynamically — deterministic sweep output, nil-safe
// observability handles, context discipline, and allocation-free hot
// paths.
//
// Six analyzers ship today:
//
//   - determinism: packages that feed sweep output must not read the wall
//     clock or the global math/rand stream, and values accumulated from a
//     map iteration must be sorted before they escape.
//   - obsguard: every exported pointer-receiver method in internal/obs
//     begins with a nil-receiver guard (or forwards to one that does), and
//     code outside obs never reaches into an obs handle's fields.
//   - ctxflow: internal packages accept contexts from their callers
//     instead of minting context.Background()/TODO(), never pass a nil
//     context, and thread a received context to context-accepting callees.
//   - noalloc: functions annotated `//cqla:noalloc` are scanned for
//     known-allocating constructs, so the zero that an internal/perf row
//     measures for the functions it names (Benchmark.NoAlloc) is a
//     property of every edit, not only of the inputs a test runs. The
//     self-check holds every such name to a function carrying the
//     directive.
//   - purity: no function reachable from CompiledWorkload.Evaluate in
//     the analytic-model packages may touch package-level mutable state,
//     call into os/file IO, or mutate its receiver's maps outside a held
//     mutex (a call-graph walk; the memo package is exempt, and a walk
//     with no roots is itself a finding).
//   - goleak: every `go` statement in the serving and observability
//     packages must be cancellable — a context, a done-channel select, or
//     a WaitGroup with a reachable Wait.
//
// Findings print as `file:line: [rule] message`. A finding is suppressed
// by a `//lint:ignore-cqla <rule> <reason>` comment on the same line or
// the line directly above (a run of consecutive waiver lines counts as
// one block, so stacked waivers all apply); `<rule>` may be a
// comma-separated list and the reason is mandatory. The cmd/cqlalint
// driver runs the suite over `./...` and exits non-zero on any finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the rule (analyzer) that fired,
// and a human-readable message.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// StringRelative formats the finding as `file:line: [rule] message` with
// the file path relative to dir when possible (absolute otherwise).
func (f Finding) StringRelative(dir string) string {
	return fmt.Sprintf("%s:%d: [%s] %s", relName(dir, f.Pos.Filename), f.Pos.Line, f.Rule, f.Msg)
}

// Analyzer is one named rule family run over every loaded package.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and suppression
	// comments.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(p *Pass)
	// Suite marks analyzers that need the whole load at once (call-graph
	// walks). They run exactly once per Run with Pass.All populated,
	// instead of once per package.
	Suite bool
}

// Analyzers is the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{determinism, obsGuard, ctxFlow, noAlloc, purity, goLeak}
}

// Config scopes the analyzers to concrete package paths. The zero value
// checks nothing; DefaultConfig returns the repository wiring, and tests
// point the same analyzers at fixture packages.
type Config struct {
	// DeterminismPkgs are the import paths of the packages that feed
	// sweep output, where the determinism analyzer applies.
	DeterminismPkgs map[string]bool
	// ObsPkg is the import path of the observability package whose
	// exported pointer-receiver methods must be nil-guarded and whose
	// handle fields are off-limits elsewhere.
	ObsPkg string
	// CtxPrefixes are import-path prefixes (library code) where the
	// ctxflow analyzer applies.
	CtxPrefixes []string
	// CtxExempt removes individual packages from the ctxflow scope (the
	// perf harness runs detached by design).
	CtxExempt map[string]bool
	// PurityPkgs are the analytic-model packages the purity call-graph
	// walk covers; calls leaving the set are trusted (they are modeled by
	// their own packages' rules).
	PurityPkgs map[string]bool
	// PurityEntries are the method names whose declarations in PurityPkgs
	// root the walk (CompiledWorkload.Evaluate, the one evaluation call).
	PurityEntries map[string]bool
	// PurityExemptPkgs are packages whose functions the walk never
	// descends into — the documented memoization layer.
	PurityExemptPkgs map[string]bool
	// GoleakPkgs are the packages where every `go` statement must be
	// provably cancellable or WaitGroup-tracked.
	GoleakPkgs map[string]bool
}

// DefaultConfig is the repository wiring of the suite.
func DefaultConfig() Config {
	return Config{
		DeterminismPkgs: map[string]bool{
			"repro/internal/explore": true,
			"repro/internal/arch":    true,
			"repro/internal/cqla":    true,
			"repro/internal/ecc":     true,
			"repro/internal/des":     true,
			"repro/internal/circuit": true,
			"repro/internal/qla":     true,
		},
		ObsPkg:      "repro/internal/obs",
		CtxPrefixes: []string{"repro/internal/"},
		// The perf harness measures library entry points from a detached
		// benchmark loop; minting its own contexts is its job.
		CtxExempt: map[string]bool{"repro/internal/perf": true},
		PurityPkgs: map[string]bool{
			"repro/internal/qla":  true,
			"repro/internal/cqla": true,
			"repro/internal/arch": true,
		},
		PurityEntries: map[string]bool{"Evaluate": true},
		// internal/memo is the documented concurrency-safe cache layer.
		PurityExemptPkgs: map[string]bool{"repro/internal/memo": true},
		GoleakPkgs: map[string]bool{
			"repro/internal/explore": true,
			"repro/internal/arch":    true,
			"repro/internal/obs":     true,
		},
	}
}

// Pass hands one package to one analyzer and collects its findings.
type Pass struct {
	Pkg *Package
	// All is every package in the load, for Suite analyzers that walk
	// across package boundaries. Per-package analyzers may ignore it.
	All      []*Package
	Cfg      Config
	rule     string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:  p.Pkg.Fset.Position(pos),
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// reportAt records a finding at an already-resolved position — for suite
// analyzers whose diagnostics point into a package other than the pass's
// own.
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:  pos,
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Run executes the full suite over the packages, drops suppressed
// findings, and returns the rest sorted by position.
func Run(cfg Config, pkgs []*Package) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			if a.Suite {
				continue
			}
			a.Run(&Pass{Pkg: pkg, All: pkgs, Cfg: cfg, rule: a.Name, findings: &findings})
		}
		findings = append(findings, badSuppressions(pkg)...)
	}
	if len(pkgs) > 0 {
		for _, a := range Analyzers() {
			if !a.Suite {
				continue
			}
			a.Run(&Pass{Pkg: pkgs[0], All: pkgs, Cfg: cfg, rule: a.Name, findings: &findings})
		}
	}
	sups := collectSuppressions(pkgs)
	kept := findings[:0]
	for _, f := range findings {
		if !sups.matches(f) {
			kept = append(kept, f)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return kept
}

// suppressionPrefix introduces an in-source waiver. The rule name and a
// non-empty reason are both required: an unexplained suppression is a
// finding of its own.
const suppressionPrefix = "//lint:ignore-cqla"

// suppressions maps file -> line -> rule names waived on that line. A
// comment on line L waives findings on L (trailing comment) and on the
// first non-waiver line below a run of consecutive waiver lines — so
// several stacked waivers all apply to the statement beneath them.
type suppressions map[string]map[int][]string

func (s suppressions) matches(f Finding) bool {
	lines := s[f.Pos.Filename]
	for _, rule := range lines[f.Pos.Line] {
		if rule == f.Rule {
			return true
		}
	}
	// Scan upward through the contiguous run of waiver-bearing lines
	// directly above the finding.
	for l := f.Pos.Line - 1; len(lines[l]) > 0; l-- {
		for _, rule := range lines[l] {
			if rule == f.Rule {
				return true
			}
		}
	}
	return false
}

func collectSuppressions(pkgs []*Package) suppressions {
	s := make(suppressions)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rules, _, ok := parseSuppression(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					lines := s[pos.Filename]
					if lines == nil {
						lines = make(map[int][]string)
						s[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], rules...)
				}
			}
		}
	}
	return s
}

// parseSuppression splits a suppression comment into its rule list and
// reason. The rule field may name several rules separated by commas; line
// endings are tolerated so CRLF sources parse identically. ok is false
// for comments that are not suppressions at all — including waiver-shaped
// text inside /* block comments */, which never suppresses; a malformed
// suppression (no rule or no reason) returns ok with an empty field.
func parseSuppression(text string) (rules []string, reason string, ok bool) {
	if !strings.HasPrefix(text, suppressionPrefix) {
		return nil, "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, suppressionPrefix))
	ruleField, reason, _ := strings.Cut(rest, " ")
	for _, r := range strings.Split(ruleField, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules = append(rules, r)
		}
	}
	return rules, strings.TrimSpace(reason), true
}

// badSuppressions flags suppression comments missing a rule or a reason —
// a waiver that does not say what it waives, or why, pins nothing.
func badSuppressions(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rules, reason, ok := parseSuppression(c.Text)
				if !ok || (len(rules) > 0 && reason != "") {
					continue
				}
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(c.Pos()),
					Rule: "suppress",
					Msg:  "suppression must name a rule and give a reason: //lint:ignore-cqla <rule> <reason>",
				})
			}
		}
	}
	return out
}

// noallocDirective marks a function whose body must not allocate in the
// steady state; the noalloc analyzer checks every function carrying it.
const noallocDirective = "//cqla:noalloc"

// hasNoallocDirective reports whether the function declaration carries
// the `//cqla:noalloc` directive in its doc comment.
func hasNoallocDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == noallocDirective {
			return true
		}
	}
	return false
}
