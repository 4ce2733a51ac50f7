package circuit_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// The DAG-build benchmarks time the same workload as the perf registry's
// rows of the same names: the 64-bit carry-lookahead adder, whose
// dependency graph is the setup cost of a one-shot des evaluation. They
// live in the external test package because gen imports circuit.

// BenchmarkBuildDAG measures a fresh arena build of the adder's DAG.
func BenchmarkBuildDAG(b *testing.B) {
	c := gen.CarryLookahead(64).Circuit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circuit.BuildDAG(c)
	}
}

// BenchmarkBuildDAGInto is the amortized path: rebuilding into one DAG.
func BenchmarkBuildDAGInto(b *testing.B) {
	c := gen.CarryLookahead(64).Circuit
	d := circuit.BuildDAG(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circuit.BuildDAGInto(d, c)
	}
}
