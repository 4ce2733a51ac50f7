// Package repro_bench holds ablation benches for the design choices listed
// under "Calibrated constants" in docs/ARCHITECTURE.md, plus the Table 1
// parameter bench.
// Each reports domain metrics (gain products, speedups, hit rates) through
// b.ReportMetric so `go test -bench=. -benchmem` prints them alongside
// timing. The paper's tables and figures are timed through their
// registered sweeps by the repository benchmark in benchmark/, not here.
package repro_bench

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/cqla"
	"repro/internal/gen"
	"repro/internal/mesh"
	"repro/internal/phys"
	"repro/internal/sched"
)

// BenchmarkTable1Params regenerates the physical-parameter table.
func BenchmarkTable1Params(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		p := phys.Projected()
		avg = p.AverageFailure()
	}
	b.ReportMetric(avg*1e9, "p0-failure-1e-9")
}

// --- Ablations (see "Calibrated constants" in docs/ARCHITECTURE.md) ------

// BenchmarkAblationCodeChoice compares Steane vs Bacon-Shor as the CQLA's
// region code at the 256-bit working point.
func BenchmarkAblationCodeChoice(b *testing.B) {
	q := 5*256 + 3
	var gpSt, gpBS float64
	for i := 0; i < b.N; i++ {
		adder := cqla.AdderKernel(256)
		st := paperMachine(arch.WithCodeName("steane"))
		bs := paperMachine(arch.WithCodeName("bacon-shor"))
		gpSt = st.GainProduct(adder, q, true)
		gpBS = bs.GainProduct(adder, q, true)
	}
	b.ReportMetric(gpSt, "gain-steane")
	b.ReportMetric(gpBS, "gain-bacon-shor")
}

// BenchmarkAblationFetchPolicy compares naive and optimized instruction
// fetch on the 256-bit adder.
func BenchmarkAblationFetchPolicy(b *testing.B) {
	ad := gen.CarryLookahead(256)
	var naive, opt float64
	for i := 0; i < b.N; i++ {
		naive = cache.Simulate(ad.Circuit, cache.Config{CacheQubits: 648, Policy: cache.Naive}).HitRate()
		opt = cache.Simulate(ad.Circuit, cache.Config{CacheQubits: 648, Policy: cache.Optimized}).HitRate()
	}
	b.ReportMetric(100*naive, "naive-hit-pct")
	b.ReportMetric(100*opt, "optimized-hit-pct")
}

// BenchmarkAblationAdderChoice compares the carry-lookahead and
// ripple-carry adders under the same 15-block budget.
func BenchmarkAblationAdderChoice(b *testing.B) {
	var claSlots, ripSlots int
	for i := 0; i < b.N; i++ {
		cla := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
		rip := circuit.BuildDAG(gen.RippleCarry(64).Circuit)
		claSlots = sched.ListSchedule(cla, 15).MakespanSlots
		ripSlots = sched.ListSchedule(rip, 15).MakespanSlots
	}
	b.ReportMetric(float64(claSlots), "cla-slots")
	b.ReportMetric(float64(ripSlots), "ripple-slots")
}

// BenchmarkAblationSuperblock sweeps superblock sizes around the bandwidth
// crossover.
func BenchmarkAblationSuperblock(b *testing.B) {
	sb := mesh.DefaultSuperblock()
	var margin16, margin64 float64
	for i := 0; i < b.N; i++ {
		margin16 = sb.Available(16) - sb.RequiredDraper(16)
		margin64 = sb.Available(64) - sb.RequiredDraper(64)
	}
	b.ReportMetric(margin16, "margin-16-blocks")
	b.ReportMetric(margin64, "margin-64-blocks")
}

// BenchmarkAblationLevelMix sweeps the L1:L2 addition mix around the
// paper's 1:2 policy.
func BenchmarkAblationLevelMix(b *testing.B) {
	m := bsMachine(36)
	adder := cqla.AdderKernel(256)
	var pure2, mix12, mix11 float64
	for i := 0; i < b.N; i++ {
		s2 := m.SpeedupL2(adder)
		s1 := m.SpeedupL1(adder)
		pure2 = s2
		mix12 = (2*s2 + s1) / 3
		mix11 = (s2 + s1) / 2
	}
	b.ReportMetric(pure2, "speedup-pure-L2")
	b.ReportMetric(mix12, "speedup-1:2-mix")
	b.ReportMetric(mix11, "speedup-1:1-mix")
}

// BenchmarkAblationTransferWidth sweeps the memory<->cache transfer-network
// width.
func BenchmarkAblationTransferWidth(b *testing.B) {
	var s5, s10, s20 float64
	for i := 0; i < b.N; i++ {
		adder := cqla.AdderKernel(256)
		for _, par := range []int{5, 10, 20} {
			m := paperMachine(arch.WithCodeName("bacon-shor"), arch.WithTransfers(par))
			s := m.SpeedupL1(adder)
			switch par {
			case 5:
				s5 = s
			case 10:
				s10 = s
			case 20:
				s20 = s
			}
		}
	}
	b.ReportMetric(s5, "L1-speedup-xfer5")
	b.ReportMetric(s10, "L1-speedup-xfer10")
	b.ReportMetric(s20, "L1-speedup-xfer20")
}
