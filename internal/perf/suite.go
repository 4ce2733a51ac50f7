package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/cqla"
	"repro/internal/des"
	"repro/internal/ecc"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/gf2"
	"repro/internal/phys"
	"repro/internal/sched"
)

// The built-in suite covers the repository's hot paths at three scales:
// micro (one syndrome decode), meso (Monte Carlo campaigns, one simulated
// adder, one cache replay) and macro (a full exploration sweep). Each row
// is defined here and nowhere else. Which rows the CI gate covers follows
// from the measurement, not from a list: every row whose baseline is at
// least GateFloor.
func init() {
	mustRegister(Benchmark{
		Name:    "SyndromeDecodeSteane",
		Doc:     "one X-error decode of the Steane code through the public vector API",
		NoAlloc: []string{"repro/internal/ecc.(*Code).CorrectX"},
		F: func(b *B) {
			c := ecc.Steane()
			e := gf2.NewVec(c.N)
			e.Set(2, true)
			e.Set(5, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.CorrectX(e)
			}
		},
	})
	mustRegister(Benchmark{
		Name:    "ConcatenatedMCLevel2",
		Doc:     "1000 hierarchical level-2 Monte Carlo trials, Bacon-Shor code at p=0.01",
		NoAlloc: []string{"repro/internal/ecc.(*Code).ConcatenatedMonteCarloX"},
		F: func(b *B) {
			c := ecc.BaconShor()
			rng := rand.New(rand.NewSource(5))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ConcatenatedMonteCarloX(2, 0.01, 1000, rng)
			}
		},
	})
	mustRegister(Benchmark{
		Name:    "ConcatenatedMCLevel2Steane",
		Doc:     "2000 hierarchical level-2 Monte Carlo trials, Steane code at p=1e-3",
		NoAlloc: []string{"repro/internal/ecc.(*Code).ConcatenatedMonteCarloX"},
		F: func(b *B) {
			c := ecc.Steane()
			rng := rand.New(rand.NewSource(7))
			var r ecc.MonteCarloResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r = c.ConcatenatedMonteCarloX(2, 1e-3, 2000, rng)
			}
			b.ReportMetric(float64(r.Trials), "trials")
		},
	})
	mustRegister(Benchmark{
		Name: "MonteCarloXSeededSerial",
		Doc:  "20000 seeded Monte Carlo trials on one worker (per-core throughput)",
		F: func(b *B) {
			c := ecc.Steane()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.MonteCarlo(1e-3, 20000, 42, ecc.MC{Workers: 1})
			}
		},
	})
	mustRegister(Benchmark{
		Name: "MonteCarloNaiveBaconShor",
		Doc:  "20000 naive Monte Carlo trials on one worker, Bacon-Shor at p=3e-2 (about a quarter of the masks are non-zero)",
		F: func(b *B) {
			c := ecc.BaconShor()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.MonteCarlo(3e-2, 20000, 42, ecc.MC{Workers: 1})
			}
		},
	})
	mustRegister(Benchmark{
		Name: "MonteCarloXSeeded",
		Doc:  "20000 seeded Monte Carlo trials across the worker pool (scales with cores)",
		F: func(b *B) {
			c := ecc.Steane()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.MonteCarlo(1e-3, 20000, 42, ecc.MC{})
			}
		},
	})
	mustRegister(Benchmark{
		Name: "DES64BitAdder",
		Doc:  "discrete-event simulation of the 64-bit adder, DAG build included",
		F: func(b *B) {
			ad := gen.CarryLookahead(64)
			cfg := des.Config{Blocks: 9, Channels: 12, ResidentQubits: 700,
				SlotTime: 100 * time.Millisecond, TransportTime: 200 * time.Millisecond}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := des.Run(ad.Circuit, cfg); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	mustRegister(Benchmark{
		Name: "DESEventLoop64BitAdder",
		Doc:  "the des event loop alone on a prebuilt 64-bit adder DAG",
		F: func(b *B) {
			ad := gen.CarryLookahead(64)
			d := circuit.BuildDAG(ad.Circuit)
			cfg := des.Config{Blocks: 9, Channels: 12, ResidentQubits: 700,
				SlotTime: 100 * time.Millisecond, TransportTime: 200 * time.Millisecond}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := des.RunDAG(context.Background(), d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	mustRegister(Benchmark{
		Name: "AnalyticAdder256",
		Doc:  "one closed-form evaluation of the 256-bit adder on the paper's working point",
		F: func(b *B) {
			m, err := arch.New(
				arch.WithParams(phys.Projected()),
				arch.WithCodeName("bacon-shor"),
				arch.WithBlocks(36),
				arch.WithTransfers(10),
			)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := m.Engine(arch.EngineAnalytic)
			if err != nil {
				b.Fatal(err)
			}
			// Compiled once and its plan built, so the loop times the
			// closed form alone.
			cw, err := m.Compile(arch.NewAdder(256, true))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			cw.Plan().DAG(ctx)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arch.EvaluateCompiled(ctx, eng, cw); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	mustRegister(Benchmark{
		Name: "EndToEndPipeline",
		Doc:  "generate, schedule and size the 256-bit adder machine, then report its gain product",
		F: func(b *B) {
			p := phys.Projected()
			var gp float64
			for i := 0; i < b.N; i++ {
				m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithParams(p))
				if err != nil {
					b.Fatal(err)
				}
				gp = m.Analytic().GainProduct(cqla.AdderKernel(256), 5*256+3, true)
			}
			b.ReportMetric(gp, "gain-product")
		},
	})
	// The Figure 7 cache simulator: the 256-bit adder at the paper's cache
	// size, and the 1024-bit adder at its 1xPE capacity (100 blocks x 9)
	// under both fetch policies.
	for _, v := range []struct {
		name   string
		bits   int
		qubits int
		policy cache.Policy
	}{
		{"OptimizedFetch256", 256, 648, cache.Optimized},
		{"OptimizedFetch1024", 1024, 900, cache.Optimized},
		{"NaiveFetch1024", 1024, 900, cache.Naive},
	} {
		mustRegister(Benchmark{
			Name: v.name,
			Doc:  fmt.Sprintf("one %v-fetch cache replay of the %d-bit adder with %d cache qubits", v.policy, v.bits, v.qubits),
			F: func(b *B) {
				ad := gen.CarryLookahead(v.bits)
				cfg := cache.Config{CacheQubits: v.qubits, Policy: v.policy}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cache.Simulate(ad.Circuit, cfg)
				}
			},
		})
	}
	mustRegister(Benchmark{
		Name: "ExplorePareto",
		Doc:  "the 45-point pareto sweep through the explore worker pool (macro)",
		F: func(b *B) {
			exp, err := explore.Lookup("pareto")
			if err != nil {
				b.Fatal(err)
			}
			p := phys.Projected()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := explore.Run(context.Background(), exp, explore.Options{Phys: p, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
}

// Compiled-workload pipeline benchmarks: the before/after-sensitive
// measurements of the arena DAG build, the compile-once/evaluate-many
// shape, and the bitmask-backed public decode, so the gains stay visible
// in BENCH.json.
func init() {
	mustRegister(Benchmark{
		Name: "BuildDAG",
		Doc:  "one arena build of the 64-bit adder's dependency DAG (the des setup cost)",
		F: func(b *B) {
			ad := gen.CarryLookahead(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				circuit.BuildDAG(ad.Circuit)
			}
		},
	})
	mustRegister(Benchmark{
		Name: "ParseCircuitQFT32",
		Doc:  "one parse of the 32-qubit QFT's canonical text (528 instructions), the serve circuit route's miss cost before planning",
		F: func(b *B) {
			src := circuit.FormatString(gen.QFT(32, false))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := circuit.ParseString(src); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	mustRegister(Benchmark{
		Name: "ServeCircuitHitQFT32",
		Doc:  "one repeated POST of the 32-qubit QFT's text to cqla serve's handler, answered from the result cache: body decode, content key, cached document",
		F: func(b *B) {
			srv := explore.NewServer()
			defer srv.Shutdown(context.Background())
			body, err := json.Marshal(map[string]string{"circuit": circuit.FormatString(gen.QFT(32, false))})
			if err != nil {
				b.Fatal(err)
			}
			post := func(want string) {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps/circuit:run", bytes.NewReader(body)))
				if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
					b.Fatalf("circuit post: status %d, X-Cache %q, want 200 and %q", rec.Code, rec.Header().Get("X-Cache"), want)
				}
			}
			post("miss")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post("hit")
			}
		},
	})
	mustRegister(Benchmark{
		Name: "GenerateQFT256",
		Doc:  "one generation of the 256-qubit QFT with bit reversal (33,280 gates), the per-gate cost every QFT point pays before its DAG",
		F: func(b *B) {
			for i := 0; i < b.N; i++ {
				gen.QFT(256, true)
			}
		},
	})
	mustRegister(Benchmark{
		Name:    "BuildDAGInto",
		Doc:     "rebuilding the 64-bit adder DAG into a reused arena (zero allocations)",
		NoAlloc: []string{"repro/internal/circuit.BuildDAGInto"},
		F: func(b *B) {
			ad := gen.CarryLookahead(64)
			d := circuit.BuildDAG(ad.Circuit)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				circuit.BuildDAGInto(d, ad.Circuit)
			}
		},
	})
	// The compile-once/evaluate-many shape for every kernel the workload
	// registry exposes, at 64 bits on a 9-block Bacon-Shor machine: one
	// binding evaluated over and over, so each iteration is a repeated
	// evaluation — the plan's simulation memo hit, the metric decode and
	// the result envelope. The first evaluation, which builds the plan and
	// runs the event loop, stays out of the loop; DESRunnerReuse and
	// DESRunnerQFT256 time the event loop itself.
	for _, v := range []struct {
		suffix string
		kind   arch.Kind
		doc    string
	}{
		{"", arch.KindAdder, "a repeated des-engine evaluation of a precompiled 64-bit adder: memo hit, decode, envelope"},
		{"QFT", arch.KindQFT, "a repeated des-engine evaluation of a precompiled 64-bit QFT rotation cascade: memo hit, decode, envelope"},
		{"QFTComm", arch.KindQFTComm, "a repeated des-engine evaluation of a precompiled 64-bit QFT with bit-reversal swaps: memo hit, decode, envelope"},
		{"ShorStage", arch.KindShorStage, "a repeated des-engine evaluation of a precompiled 64-bit controlled Shor adder stage: memo hit, decode, envelope"},
	} {
		w := arch.NewKind(v.kind, 64)
		mustRegister(Benchmark{
			Name: "CompileOnceEvalMany" + v.suffix,
			Doc:  v.doc,
			F: func(b *B) {
				m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(9))
				if err != nil {
					b.Fatal(err)
				}
				eng, err := m.Engine(arch.EngineDES)
				if err != nil {
					b.Fatal(err)
				}
				cw, err := m.Compile(w)
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				if _, err := arch.EvaluateCompiled(ctx, eng, cw); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := arch.EvaluateCompiled(ctx, eng, cw); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	mustRegister(Benchmark{
		Name: "MonteCarloBitSliced",
		// The same workload as MonteCarloXSeededSerial — one worker, 20000
		// trials, seed 42 — so the two rows read directly as the
		// bit-sliced engine's speedup over the scalar decoder. It is
		// certified through its three kernels: the transposed
		// sampler/decoder, the logical-fault reduction and the cached
		// Bernoulli lane generator.
		Doc: "20000 bit-sliced Monte Carlo trials on one worker (64 trials per decode)",
		NoAlloc: []string{
			"repro/internal/ecc.(*bitDecoder).sampleBatch",
			"repro/internal/ecc.(*bitDecoder).faultLanes",
			"repro/internal/ecc.(*mcProb).lanes",
		},
		F: func(b *B) {
			c := ecc.Steane()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.MonteCarlo(1e-3, 20000, 42, ecc.MC{Estimator: ecc.BitSliced, Workers: 1})
			}
		},
	})
	mustRegister(Benchmark{
		Name:    "MonteCarloRareEvent",
		Doc:     "importance-sampled Monte Carlo at p=1e-4 on one worker: a 20000-trial budget, one 19968-trial grant",
		NoAlloc: []string{"repro/internal/ecc.(*bitDecoder).sampleBatchHist"},
		F: func(b *B) {
			c := ecc.Steane()
			var r ecc.MonteCarloResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r = c.MonteCarlo(1e-4, 20000, 42, ecc.MC{Estimator: ecc.Rare, Workers: 1})
			}
			b.ReportMetric(float64(r.FaultTrials), "fault-trials")
		},
	})
	mustRegister(Benchmark{
		Name:    "DESRunnerReuse",
		Doc:     "the des event loop replayed on a reused 64-bit adder arena (zero allocations)",
		NoAlloc: []string{"repro/internal/des.(*Runner).Run"},
		F: func(b *B) {
			d := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
			cfg := des.Config{Blocks: 9, Channels: 12, ResidentQubits: 700,
				SlotTime: 100 * time.Millisecond, TransportTime: 200 * time.Millisecond}
			r, err := des.NewRunner(d, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// The first run grows the arena's waiter lists; the loop
			// replays the event loop alone.
			if _, err := r.Run(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	// Figure 8(b)'s des evaluation, split into its two halves at the
	// 256-qubit QFT on the sweep's machine: the compute-only list schedule
	// (what the plan memo caches) and the event loop on a reused arena.
	mustRegister(Benchmark{
		Name: "PlanMakespanQFT256",
		Doc:  "the list-scheduled makespan of the 256-qubit QFT at 36 blocks on a fresh plan (fig8b's compute-only bound)",
		F: func(b *B) {
			plan, err := arch.PlanWorkload(arch.NewQFT(256))
			if err != nil {
				b.Fatal(err)
			}
			d := plan.DAG(context.Background())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.NewPlan(d).Makespan(36)
			}
		},
	})
	mustRegister(Benchmark{
		Name:    "DESRunnerQFT256",
		Doc:     "the des event loop of the 256-qubit QFT on fig8b's machine, replayed on a reused arena",
		NoAlloc: []string{"repro/internal/des.(*Runner).Run"},
		F: func(b *B) {
			d := circuit.BuildDAG(gen.QFT(256, false))
			// fig8b's 36-block Bacon-Shor machine at the projected
			// technology point, as arch derives its simulator config.
			cfg := des.Config{Blocks: 36, Channels: 3, ResidentQubits: 972,
				SlotTime: 100800 * time.Microsecond, TransportTime: 201600 * time.Microsecond}
			r, err := des.NewRunner(d, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// The first run grows the arena's waiter lists; the loop
			// replays the event loop alone.
			if _, err := r.Run(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	mustRegister(Benchmark{
		Name: "PublicDecode",
		Doc:  "one public-API syndrome extraction + table decode, Steane X errors (zero allocations)",
		NoAlloc: []string{
			"repro/internal/ecc.(*Code).SyndromeX",
			"repro/internal/ecc.(*Code).DecodeX",
		},
		F: func(b *B) {
			c := ecc.Steane()
			e := gf2.NewVec(c.N)
			e.Set(2, true)
			e.Set(5, true)
			weight := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := c.SyndromeX(e)
				cor := c.DecodeX(s)
				weight += cor.Weight()
			}
			b.ReportMetric(float64(weight/b.N), "correction-weight")
		},
	})
}
