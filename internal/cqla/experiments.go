package cqla

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/ecc"
	"repro/internal/gen"
	"repro/internal/mesh"
	"repro/internal/phys"
	"repro/internal/sched"
	"repro/internal/transfer"
)

// PaperBlockCounts returns the compute-block budgets the paper evaluates
// for each modular-exponentiation input size in Table 4 (two per size).
func PaperBlockCounts() map[int][2]int {
	return map[int][2]int{
		32:   {4, 9},
		64:   {9, 16},
		128:  {16, 25},
		256:  {36, 49},
		512:  {64, 81},
		1024: {100, 121},
	}
}

// PaperInputSizes returns Table 4's input sizes in ascending order.
func PaperInputSizes() []int { return []int{32, 64, 128, 256, 512, 1024} }

// Table4Row is one row of Table 4: CQLA vs QLA for modular exponentiation
// at one (input size, compute blocks) point, for both codes.
type Table4Row struct {
	InputSize, Blocks                int
	AreaReducedSteane, AreaReducedBS float64
	SpeedupSteane, SpeedupBS         float64
	GainProductSteane, GainProductBS float64
}

// Table4 reproduces Table 4: the specialization study without the memory
// hierarchy.
func Table4(p phys.Params) []Table4Row {
	var rows []Table4Row
	blockTable := PaperBlockCounts()
	st, bs := ecc.Steane(), ecc.BaconShor()
	for _, n := range PaperInputSizes() {
		q := gen.NewModExp(n).LogicalQubits()
		adder := AdderKernel(n)
		for _, k := range blockTable[n] {
			mSt := New(Config{Code: st, Params: p, ComputeBlocks: k, ParallelTransfers: 10})
			mBS := New(Config{Code: bs, Params: p, ComputeBlocks: k, ParallelTransfers: 10})
			row := Table4Row{
				InputSize:         n,
				Blocks:            k,
				AreaReducedSteane: mSt.AreaReduction(q, false),
				AreaReducedBS:     mBS.AreaReduction(q, false),
				SpeedupSteane:     mSt.SpeedupL2(adder),
				SpeedupBS:         mBS.SpeedupL2(adder),
			}
			row.GainProductSteane = row.AreaReducedSteane * row.SpeedupSteane
			row.GainProductBS = row.AreaReducedBS * row.SpeedupBS
			rows = append(rows, row)
		}
	}
	return rows
}

// Table5Row is one row of Table 5: the memory-hierarchy study.
type Table5Row struct {
	Code              string
	ParallelTransfers int
	AdderSize         int
	L1Speedup         float64
	L2Speedup         float64
	AdderSpeedup      float64
	AreaReduced       float64
	GainProduct       float64
}

// Table5Sizes returns the adder sizes of Table 5.
func Table5Sizes() []int { return []int{256, 512, 1024} }

// Table5 reproduces Table 5: adding the level-1 cache + compute tier with 5
// or 10 parallel memory<->cache transfers.
func Table5(p phys.Params) []Table5Row {
	var rows []Table5Row
	blockTable := PaperBlockCounts()
	adders := make(map[int]*sched.Plan)
	for _, n := range Table5Sizes() {
		adders[n] = AdderKernel(n)
	}
	for _, code := range ecc.Codes() {
		for _, par := range []int{10, 5} {
			for _, n := range Table5Sizes() {
				k := blockTable[n][0]
				adder := adders[n]
				m := New(Config{Code: code, Params: p, ComputeBlocks: k, ParallelTransfers: par})
				q := gen.NewModExp(n).LogicalQubits()
				rows = append(rows, Table5Row{
					Code:              code.Short,
					ParallelTransfers: par,
					AdderSize:         n,
					L1Speedup:         m.SpeedupL1(adder),
					L2Speedup:         m.SpeedupL2(adder),
					AdderSpeedup:      m.AdderSpeedup(adder),
					AreaReduced:       m.AreaReduction(q, true),
					GainProduct:       m.GainProduct(adder, q, true),
				})
			}
		}
	}
	return rows
}

// Figure2 reproduces the parallelism profile of Figure 2: gates in parallel
// over time for the 64-qubit adder with unlimited resources and with a
// fixed block budget (15 in the paper).
type Figure2 struct {
	AdderSize        int
	Blocks           int
	UnlimitedProfile []int
	LimitedProfile   []int
	UnlimitedSlots   int
	LimitedSlots     int
}

// Fig2 computes Figure 2 for the given adder size and block budget.
func Fig2(adderSize, blocks int) Figure2 {
	dag := AdderKernel(adderSize).DAG()
	unlimited := sched.ListSchedule(dag, 0)
	limited := sched.ListSchedule(dag, blocks)
	return Figure2{
		AdderSize:        adderSize,
		Blocks:           blocks,
		UnlimitedProfile: unlimited.Profile(dag.Circuit()),
		LimitedProfile:   limited.Profile(dag.Circuit()),
		UnlimitedSlots:   unlimited.MakespanSlots,
		LimitedSlots:     limited.MakespanSlots,
	}
}

// Figure6a is one utilization curve: adder size against block counts.
type Figure6a struct {
	AdderSize    int
	BlockCounts  []int
	Utilizations []float64
}

// Fig6aBlockCounts returns the x-axis of Figure 6(a).
func Fig6aBlockCounts() []int { return []int{4, 16, 36, 64, 100, 144, 196} }

// Fig6a computes the utilization curves for every paper input size.
func Fig6a() []Figure6a {
	var out []Figure6a
	counts := Fig6aBlockCounts()
	for _, n := range PaperInputSizes() {
		out = append(out, Figure6a{
			AdderSize:    n,
			BlockCounts:  counts,
			Utilizations: sched.UtilizationSweep(AdderKernel(n).DAG(), counts),
		})
	}
	return out
}

// Figure6b is the superblock bandwidth balance.
type Figure6b struct {
	Blocks         []int
	Available      []float64
	RequiredDraper []float64
	RequiredWorst  []float64
	Crossover      int
}

// Fig6bBlockCounts returns the x-axis of Figure 6(b).
func Fig6bBlockCounts() []int {
	var counts []int
	for k := 4; k <= 80; k += 4 {
		counts = append(counts, k)
	}
	return counts
}

// Fig6b computes Figure 6(b) from the mesh bandwidth model.
func Fig6b() Figure6b {
	sb := mesh.DefaultSuperblock()
	var f Figure6b
	for _, k := range Fig6bBlockCounts() {
		f.Blocks = append(f.Blocks, k)
		f.Available = append(f.Available, sb.Available(k))
		f.RequiredDraper = append(f.RequiredDraper, sb.RequiredDraper(k))
		f.RequiredWorst = append(f.RequiredWorst, sb.RequiredWorst(k))
	}
	f.Crossover = sb.Crossover()
	return f
}

// Figure7Row is one bar group of Figure 7: hit rates for one adder size.
type Figure7Row struct {
	AdderSize  int
	CacheSize  int
	Multiplier float64 // cache size as a multiple of the compute region
	NaiveRate  float64
	OptimRate  float64
}

// Fig7Sizes returns the adder sizes of Figure 7.
func Fig7Sizes() []int { return []int{64, 128, 256, 512, 1024} }

// Fig7 reproduces Figure 7: cache hit rates for naive and optimized
// instruction fetch at cache sizes {1, 1.5, 2} x the compute-region qubits.
func Fig7(p phys.Params) []Figure7Row {
	var rows []Figure7Row
	blockTable := PaperBlockCounts()
	for _, n := range Fig7Sizes() {
		ad := gen.CarryLookahead(n)
		pe := blockTable[n][0] * BlockDataQubits
		for _, mult := range []float64{1, 1.5, 2} {
			capQ := int(mult * float64(pe))
			naive := cache.Simulate(ad.Circuit, cache.Config{CacheQubits: capQ, Policy: cache.Naive})
			opt := cache.Simulate(ad.Circuit, cache.Config{CacheQubits: capQ, Policy: cache.Optimized})
			rows = append(rows, Figure7Row{
				AdderSize:  n,
				CacheSize:  capQ,
				Multiplier: mult,
				NaiveRate:  naive.HitRate(),
				OptimRate:  opt.HitRate(),
			})
		}
	}
	return rows
}

// AppTimes holds total computation and communication time for one problem
// size of an application (Figure 8).
type AppTimes struct {
	ProblemSize   int
	Computation   time.Duration
	Communication time.Duration
}

// ModExpTimes computes Figure 8(a)'s point for one input size n, given the
// n-bit adder kernel's plan: total computation and communication time of a
// full modular exponentiation on the Bacon-Shor CQLA. Computation is the adder calls divided across the
// concurrent additions a multiplication exposes; communication is the
// operand traffic through the compute-region perimeter, which the
// teleportation interconnect sustains without stalling computation.
func (m *Machine) ModExpTimes(n int, adder *sched.Plan) AppTimes {
	me := gen.NewModExp(n)
	adderTime := m.AdderTimeL2(adder)
	comp := time.Duration(float64(me.AdderCalls()) / float64(me.ConcurrentAdders()) * float64(adderTime))

	transport := mesh.TransportTime(m.cfg.Code, 2, m.cfg.Params)
	operands := 2*n + 1
	perimeterChannels := 4.0 * math.Sqrt(float64(m.cfg.ComputeBlocks))
	commPerAdder := float64(operands) * float64(transport) / perimeterChannels
	comm := time.Duration(float64(me.AdderCalls()) / float64(me.ConcurrentAdders()) * commPerAdder)
	return AppTimes{ProblemSize: n, Computation: comp, Communication: comm}
}

// QFTTimes computes Figure 8(b)'s point for one problem size: the quantum
// Fourier transform's all-to-all personalized communication against its
// light computation. Controlled rotations are not transversal and cost
// CPhaseSlots slots each; every gate's operand pair is teleported together
// once, so communication closely tracks computation.
func (m *Machine) QFTTimes(n int) AppTimes {
	gates := gen.QFTGateCount(n)
	comp := time.Duration(gates*CPhaseSlots) * m.SlotTime(2)
	comm := time.Duration(gates) * mesh.TransportTime(m.cfg.Code, 2, m.cfg.Params)
	return AppTimes{ProblemSize: n, Computation: comp, Communication: comm}
}

// Fig8a computes Figure 8(a) across the paper's adder sizes using each
// size's paper block budget, on the Bacon-Shor code.
func Fig8a(p phys.Params) []AppTimes {
	var out []AppTimes
	blockTable := PaperBlockCounts()
	for _, n := range PaperInputSizes() {
		m := New(Config{Code: ecc.BaconShor(), Params: p, ComputeBlocks: blockTable[n][0], ParallelTransfers: 10})
		out = append(out, m.ModExpTimes(n, AdderKernel(n)))
	}
	return out
}

// Fig8bSizes returns Figure 8(b)'s x-axis.
func Fig8bSizes() []int { return []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000} }

// Fig8b computes Figure 8(b) on the Bacon-Shor code.
func Fig8b(p phys.Params) []AppTimes {
	m := New(Config{Code: ecc.BaconShor(), Params: p, ComputeBlocks: 36, ParallelTransfers: 10})
	var out []AppTimes
	for _, n := range Fig8bSizes() {
		out = append(out, m.QFTTimes(n))
	}
	return out
}

// Table2Rows regenerates the error-correction metric summary of Table 2.
func Table2Rows(p phys.Params) []ecc.Metrics {
	var rows []ecc.Metrics
	for _, c := range ecc.Codes() {
		for _, level := range []int{1, 2} {
			rows = append(rows, c.Metrics(level, p))
		}
	}
	return rows
}

// Table3Matrix regenerates the code-transfer latency matrix of Table 3.
func Table3Matrix() ([]transfer.Encoding, [][]time.Duration) {
	encs := transfer.Encodings()
	m := make([][]time.Duration, len(encs))
	for i, from := range encs {
		m[i] = make([]time.Duration, len(encs))
		for j, to := range encs {
			m[i][j] = transfer.MustLatency(from, to)
		}
	}
	return encs, m
}

// FormatTable4 renders Table 4 in the paper's layout.
func FormatTable4(rows []Table4Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-7s %-10s %-10s %-9s %-9s %-9s %-9s\n",
		"Input", "Blocks", "Area(St)", "Area(BSr)", "Spd(St)", "Spd(BSr)", "GP(St)", "GP(BSr)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6d %-7d %-10.2f %-10.2f %-9.2f %-9.2f %-9.2f %-9.2f\n",
			r.InputSize, r.Blocks, r.AreaReducedSteane, r.AreaReducedBS,
			r.SpeedupSteane, r.SpeedupBS, r.GainProductSteane, r.GainProductBS)
	}
	return sb.String()
}

// FormatTable5 renders Table 5 in the paper's layout.
func FormatTable5(rows []Table5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-5s %-6s %-9s %-9s %-9s %-9s %-9s\n",
		"Code", "Xfer", "Adder", "L1 Spd", "L2 Spd", "AdderSpd", "Area", "GP")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-5d %-6d %-9.2f %-9.2f %-9.2f %-9.2f %-9.2f\n",
			r.Code, r.ParallelTransfers, r.AdderSize, r.L1Speedup, r.L2Speedup,
			r.AdderSpeedup, r.AreaReduced, r.GainProduct)
	}
	return sb.String()
}
