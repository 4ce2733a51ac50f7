// Package seed stands in for internal/perf: its init registers rows that
// reach library code.
package seed

import "repro/internal/lint/testdata/src/reachfix/lib"

var rows []func()

func init() {
	register(lib.Used, lib.PerfOnly, lib.Valued, func() {
		var t lib.T
		t.PerfMethod()
		_ = t.Area() + lib.InitVar()
		_ = t.String()
	})
}

// register is the seed's own helper: reached only from its init, but part
// of the seed package, so never reported.
func register(fs ...func()) { rows = append(rows, fs...) }
