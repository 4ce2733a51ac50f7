// Command cqlalint runs the repository's static-analysis suite
// (internal/lint) over the named package patterns. It exits 0 when the
// tree is clean, 1 when any finding remains, and 2 on a load failure
// (load errors print to stderr with file:line positions).
//
// Usage:
//
//	cqlalint [-list] [-format text|github] [packages]
//
// With no patterns it analyzes ./... . Output formats: text prints
// `file:line: [rule] message`; github emits `::error file=…,line=…`
// workflow commands so CI findings annotate the PR diff.
//
// Suppress an individual finding with a
// `//lint:ignore-cqla <rule> <reason>` comment on the same line or the
// line directly above it.
//
// The suite is static: whether a //cqla:noalloc function allocates at
// runtime is measured by the internal/perf rows that name it
// (Benchmark.NoAlloc) and checked by that package's tests.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	format := flag.String("format", "text", "findings output: text or github")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cqlalint [-list] [-format text|github] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cqlalint: %v\n", err)
		os.Exit(2)
	}

	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		var le *lint.LoadError
		if errors.As(err, &le) {
			for _, d := range le.Diags {
				fmt.Fprintf(os.Stderr, "%s\n", d)
			}
			fmt.Fprintf(os.Stderr, "cqlalint: %d load error(s)\n", len(le.Diags))
		} else {
			fmt.Fprintf(os.Stderr, "cqlalint: %v\n", err)
		}
		os.Exit(2)
	}
	findings := lint.Run(lint.DefaultConfig(), pkgs)

	switch *format {
	case "text":
		for _, f := range findings {
			fmt.Println(f.StringRelative(cwd))
		}
	case "github":
		if err := lint.WriteGitHub(os.Stdout, cwd, findings); err != nil {
			fmt.Fprintf(os.Stderr, "cqlalint: %v\n", err)
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "cqlalint: unknown -format %q (want text or github)\n", *format)
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "cqlalint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
