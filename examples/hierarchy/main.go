// Hierarchy: the quantum memory hierarchy in action. This example dissects
// where the level-1 tier's speedup comes from: it runs the qubit-cache
// simulator on a real adder instruction stream under both fetch policies,
// converts the miss traffic into code-transfer stalls at several transfer
// network widths, and shows the resulting per-addition speedups and the
// fidelity budget that caps how often the fast tier may be used.
//
// Run with: go run ./examples/hierarchy
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/fidelity"
	"repro/internal/gen"
	"repro/internal/phys"
	"repro/internal/transfer"
)

func main() {
	const bits = 256
	p := phys.Projected()
	ad := gen.CarryLookahead(bits)
	pe := 36 * cqla.BlockDataQubits // one superblock's data qubits

	fmt.Printf("Memory hierarchy study on the %d-bit carry-lookahead adder\n\n", bits)

	// 1. The cache: policy beats capacity.
	fmt.Println("cache hit rates (LRU):")
	fmt.Printf("  %-12s %-10s %-10s\n", "capacity", "naive", "optimized")
	for _, mult := range []float64{1, 1.5, 2} {
		capQ := int(mult * float64(pe))
		naive := cache.Simulate(ad.Circuit, cache.Config{CacheQubits: capQ, Policy: cache.Naive})
		opt := cache.Simulate(ad.Circuit, cache.Config{CacheQubits: capQ, Policy: cache.Optimized})
		fmt.Printf("  %-12s %-10.1f %-10.1f\n",
			fmt.Sprintf("%.1fxPE", mult), 100*naive.HitRate(), 100*opt.HitRate())
	}

	// 2. The transfer network: what a miss costs.
	fmt.Println("\ncode-transfer round trips (Table 3):")
	for _, c := range ecc.Codes() {
		rt := transfer.RoundTrip(transfer.Enc(c, 2), transfer.Enc(c, 1))
		fmt.Printf("  %-22s %.1f s per qubit (needs %d channel(s) per transfer)\n",
			c.Name, rt.Seconds(), c.ChannelsRequired())
	}

	// 3. Putting it together: per-addition speedups by network width.
	fmt.Println("\nper-addition speedup vs QLA (Bacon-Shor, 36 blocks):")
	fmt.Printf("  %-8s %-10s %-10s %-12s\n", "xfers", "L1", "L2", "1:2 mix")
	adder := cqla.AdderKernel(bits)
	for _, par := range []int{2, 5, 10, 20} {
		am, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithParams(p), arch.WithTransfers(par))
		if err != nil {
			log.Fatal(err)
		}
		m := am.Analytic()
		fmt.Printf("  %-8d %-10.1f %-10.2f %-12.2f\n",
			par, m.SpeedupL1(adder), m.SpeedupL2(adder), m.AdderSpeedup(adder))
	}

	// 4. The fidelity ceiling on level-1 usage.
	app := fidelity.ModExpAppSize(1024)
	fmt.Println("\nfidelity budget for the 1024-bit workload:")
	for _, c := range ecc.Codes() {
		b := fidelity.NewBudget(c, p.AverageFailure())
		frac := b.MaxLevel1Fraction(app.Target())
		fmt.Printf("  %-22s max level-1 operation share %.0f%%; 1:2 mix safe=%v\n",
			c.Name, 100*frac, b.MixMeetsTarget(1, 2, app))
	}
	tf := fidelity.Level1TimeFraction(1, 2,
		ecc.BaconShor().ECTime(1, p).Seconds(), ecc.BaconShor().ECTime(2, p).Seconds())
	fmt.Printf("  (the 1:2 mix spends only %.1f%% of wall-clock time at level 1)\n", 100*tf)
}
