package perf

// MeasuredFunctions maps each registered benchmark to the fully
// qualified functions whose allocation behavior the benchmark certifies.
// The budget-aware noalloc analyzer (internal/lint) joins this table
// with a BENCH.json document: a benchmark measuring 0 allocs/op requires
// `//cqla:noalloc` on its functions, and a mapped directive whose
// benchmark now allocates is stale. Keeping the table next to the
// registry — and pinned against it by TestMeasuredFunctionsSchema —
// means renaming a benchmark breaks the build instead of silently
// dropping a budget.
//
// Symbols use the lint grammar: "import/path.Func",
// "import/path.(*Type).Method" or "import/path.(Type).Method".
func MeasuredFunctions() map[string][]string {
	return map[string][]string{
		"AnalyticAdder256":    {"repro/internal/arch.(analyticEngine).EvaluateCompiledInto"},
		"BuildDAG":            {"repro/internal/circuit.BuildDAG"},
		"BuildDAGInto":        {"repro/internal/circuit.BuildDAGInto"},
		"CompileOnceEvalMany": {"repro/internal/arch.(simEngine).EvaluateCompiledInto"},
		"ConcatenatedMCLevel2": {
			"repro/internal/ecc.(*Code).ConcatenatedMonteCarloX",
		},
		"ConcatenatedMCLevel2Steane": {
			"repro/internal/ecc.(*Code).ConcatenatedMonteCarloX",
		},
		"DES64BitAdder":          {"repro/internal/des.Run"},
		"DESEventLoop64BitAdder": {"repro/internal/des.RunDAG"},
		"DESRunnerQFT256":        {"repro/internal/des.(*Runner).Run"},
		"DESRunnerReuse":         {"repro/internal/des.(*Runner).Run"},
		"ExplorePareto":          {"repro/internal/explore.Run"},
		// The bit-sliced campaign is certified through its three kernels:
		// the transposed sampler/decoder, the logical-fault reduction and
		// the cached Bernoulli lane generator.
		"MonteCarloBitSliced": {
			"repro/internal/ecc.(*bitDecoder).sampleBatch",
			"repro/internal/ecc.(*bitDecoder).faultLanes",
			"repro/internal/ecc.(*mcProb).lanes",
		},
		"MonteCarloRareEvent": {
			"repro/internal/ecc.(*bitDecoder).sampleBatchHist",
		},
		"MonteCarloXSeeded":       {"repro/internal/ecc.(*Code).MonteCarlo"},
		"MonteCarloXSeededSerial": {"repro/internal/ecc.(*Code).MonteCarlo"},
		"PublicDecode": {
			"repro/internal/ecc.(*Code).SyndromeX",
			"repro/internal/ecc.(*Code).DecodeX",
		},
		// Mappable since gf2.Vec went inline-word: the (Vec, bool) return
		// that used to escape in the caller is now a plain value.
		"SyndromeDecodeSteane": {"repro/internal/ecc.(*Code).CorrectX"},
	}
}
