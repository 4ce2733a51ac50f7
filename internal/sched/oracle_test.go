package sched_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/minheap"
	"repro/internal/sched"
)

// oracleListSchedule is the closure-heap list scheduler that packed-key
// heaps, and then the bucketed ready set and duration lanes, replaced,
// kept verbatim as the reference the dispatch loop must match:
// the ready heap compares priorities through a table lookup, the running
// heap compares (end, instruction) pairs, and every instruction is read
// from the circuit.
func oracleListSchedule(d *circuit.DAG, blocks int) sched.Result {
	c := d.Circuit()
	n := c.Len()
	res := sched.Result{Blocks: blocks, Start: make([]int, n)}
	for _, in := range c.Instrs() {
		res.BusySlots += in.Slots()
	}
	if n == 0 {
		return res
	}
	if blocks <= 0 {
		res.Blocks = 0
		for i := range res.Start {
			res.Start[i] = d.ASAPStart(i)
			if end := res.Start[i] + c.Instr(i).Slots(); end > res.MakespanSlots {
				res.MakespanSlots = end
			}
		}
		return res
	}

	prio := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		longest := 0
		for _, s := range d.Succs(i) {
			if prio[s] > longest {
				longest = prio[s]
			}
		}
		prio[i] = longest + c.Instr(i).Slots()
	}
	remainingDeps := make([]int, n)
	ready := minheap.New(n, func(a, b int) bool {
		if prio[a] != prio[b] {
			return prio[a] > prio[b]
		}
		return a < b
	})
	for i := 0; i < n; i++ {
		remainingDeps[i] = len(d.Deps(i))
		if remainingDeps[i] == 0 {
			ready.Push(i)
		}
	}
	type finishEntry struct{ end, instr int }
	running := minheap.New(min(blocks, n), func(a, b finishEntry) bool {
		if a.end != b.end {
			return a.end < b.end
		}
		return a.instr < b.instr
	})
	now, free, scheduled := 0, blocks, 0
	for scheduled < n {
		for free > 0 && ready.Len() > 0 {
			i := ready.Pop()
			res.Start[i] = now
			end := now + c.Instr(i).Slots()
			running.Push(finishEntry{end, i})
			free--
			scheduled++
			if end > res.MakespanSlots {
				res.MakespanSlots = end
			}
		}
		if running.Len() == 0 {
			panic("oracle: deadlock")
		}
		now = running.Peek().end
		for running.Len() > 0 && running.Peek().end == now {
			e := running.Pop()
			free++
			for _, s := range d.Succs(e.instr) {
				remainingDeps[s]--
				if remainingDeps[s] == 0 {
					ready.Push(int(s))
				}
			}
		}
	}
	return res
}

// oracleBudgets spans one block, the paper's block counts and fig6a's
// budgets, and more blocks than most of the test circuits can use; 0 is
// unlimited. The oracle test adds one budget above each circuit's
// instruction count.
var oracleBudgets = []int{0, 1, 2, 3, 4, 9, 15, 16, 36, 64, 100, 196}

// randomMixed builds a seeded circuit that interleaves generator kernels
// with random one-slot gates and fifteen-slot Toffolis, so ready sets mix
// both durations and priorities tie often.
func randomMixed(seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	nq := 6 + rng.Intn(20)
	c := circuit.New(nq)
	c.AppendAll(gen.QFT(2+rng.Intn(nq-1), false))
	for i := 0; i < 40+rng.Intn(200); i++ {
		a, b, t := rng.Intn(nq), rng.Intn(nq), rng.Intn(nq)
		switch rng.Intn(4) {
		case 0:
			c.AddT(a)
		case 1, 2:
			if a != b {
				c.AddCNOT(a, b)
			}
		case 3:
			if a != b && b != t && a != t {
				c.AddToffoli(a, b, t)
			}
		}
	}
	c.AppendAll(gen.RippleCarry(1 + rng.Intn(4)).Circuit)
	return c
}

// reversedArrivals builds a seeded circuit in which one priority receives
// its instructions in decreasing index order: a root gate on every qubit,
// seeded gates that shift some roots' priorities, then one leaf gate per
// qubit in reverse qubit order. With few blocks the roots, which outrank
// the leaves, run in index order, so each root's leaf becomes ready after
// a higher-indexed one: the arrivals the ready set's overflow heap takes.
func reversedArrivals(seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	nq := 4 + rng.Intn(28)
	c := circuit.New(nq)
	for q := 0; q < nq; q++ {
		c.AddH(q)
	}
	for i := rng.Intn(nq / 2); i > 0; i-- {
		a, b, t := rng.Intn(nq), rng.Intn(nq), rng.Intn(nq)
		if a != b && b != t && a != t && rng.Intn(2) == 0 {
			c.AddToffoli(a, b, t)
		} else if a != b {
			c.AddCNOT(a, b)
		}
	}
	for q := nq - 1; q >= 0; q-- {
		if rng.Intn(4) == 0 {
			c.AddX(q)
		} else {
			c.AddT(q)
		}
	}
	return c
}

// toffoliChain is a serial chain of n Toffolis, the widest priority range
// a circuit of n instructions can have: 15, 30, …, 15n.
func toffoliChain(n int) *circuit.Circuit {
	c := circuit.New(3)
	for i := 0; i < n; i++ {
		c.AddToffoli(i%3, (i+1)%3, (i+2)%3)
	}
	return c
}

// toffoliChains interleaves seeded chains of Toffolis and one-slot gates,
// each on its own three qubits, so the ready set holds one instruction of
// each chain at priorities far apart, and more than 1024 distinct
// priorities take the bucket tree to three levels.
func toffoliChains(seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	chains := 2 + rng.Intn(7)
	c := circuit.New(3 * chains)
	for i := 0; i < 1500+rng.Intn(500); i++ {
		q := 3 * rng.Intn(chains)
		if rng.Intn(4) == 0 {
			c.AddH(q + rng.Intn(3))
		} else {
			c.AddToffoli(q, q+1, q+2)
		}
	}
	return c
}

// oracleDAGs returns every kernel arch.Kinds builds, at two widths, two
// larger kernels, and seeded circuits of four shapes.
func oracleDAGs(t *testing.T) map[string]*circuit.DAG {
	t.Helper()
	out := map[string]*circuit.DAG{}
	ctx := context.Background()
	for _, k := range arch.Kinds() {
		for _, bits := range []int{8, 32} {
			plan, err := arch.PlanWorkload(arch.NewKind(k, bits))
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/%d", k, bits)] = plan.DAG(ctx)
		}
	}
	out["qft/128"] = circuit.BuildDAG(gen.QFT(128, false))
	out["carry-lookahead/256"] = circuit.BuildDAG(gen.CarryLookahead(256).Circuit)
	for seed := int64(1); seed <= 24; seed++ {
		out[fmt.Sprintf("random/%d", seed)] = circuit.BuildDAG(randomMixed(seed))
		out[fmt.Sprintf("reversed/%d", seed)] = circuit.BuildDAG(reversedArrivals(seed))
	}
	for seed := int64(1); seed <= 4; seed++ {
		out[fmt.Sprintf("toffoli-chains/%d", seed)] = circuit.BuildDAG(toffoliChains(seed))
	}
	out["toffoli-chain/1500"] = circuit.BuildDAG(toffoliChain(1500))
	out["empty"] = circuit.BuildDAG(circuit.New(2))
	return out
}

// matchOracle reports where ListSchedule and Plan.Makespan part from the
// oracle at one budget: start slots, makespan, busy slots and block count.
func matchOracle(t *testing.T, name string, d *circuit.DAG, plan *sched.Plan, blocks int) {
	t.Helper()
	want := oracleListSchedule(d, blocks)
	got := sched.ListSchedule(d, blocks)
	if got.Blocks != want.Blocks || got.MakespanSlots != want.MakespanSlots ||
		got.BusySlots != want.BusySlots || !slices.Equal(got.Start, want.Start) {
		t.Errorf("%s at %d blocks: schedule diverges from the oracle (makespan %d vs %d)",
			name, blocks, got.MakespanSlots, want.MakespanSlots)
	}
	if m := plan.Makespan(blocks); m != want.MakespanSlots {
		t.Errorf("%s at %d blocks: Plan.Makespan %d, oracle %d", name, blocks, m, want.MakespanSlots)
	}
}

// TestListScheduleMatchesOracle pins the dispatch loop to the closure-heap
// scheduler it replaced: identical start slots, makespan, busy slots and
// block count on every kernel and seeded circuit at every budget, and
// Plan.Makespan equal to the oracle's makespan.
func TestListScheduleMatchesOracle(t *testing.T) {
	for name, d := range oracleDAGs(t) {
		plan := sched.NewPlan(d)
		for _, b := range append(oracleBudgets, d.Circuit().Len()+1) {
			matchOracle(t, name, d, plan, b)
		}
	}
}

// fuzzCircuit decodes a circuit and a block budget from fuzz input. The
// first byte picks the qubit count (3 to 18), the second the budget (0 is
// unlimited, up to 39), and each following three bytes one gate: the
// first byte's low two bits pick H, T, CNOT or Toffoli, its high bits the
// Toffoli's target, and the next two bytes the first operands. A gate
// whose operands collide is skipped.
func fuzzCircuit(data []byte) (*circuit.Circuit, int) {
	if len(data) < 2 {
		return circuit.New(3), 1
	}
	nq := 3 + int(data[0])%16
	c := circuit.New(nq)
	for g := data[2:]; len(g) >= 3 && c.Len() < 4096; g = g[3:] {
		a, b, t := int(g[1])%nq, int(g[2])%nq, int(g[0]>>2)%nq
		switch g[0] % 4 {
		case 0:
			c.AddH(a)
		case 1:
			c.AddT(a)
		case 2:
			if a != b {
				c.AddCNOT(a, b)
			}
		case 3:
			if a != b && b != t && a != t {
				c.AddToffoli(a, b, t)
			}
		}
	}
	return c, int(data[1]) % 40
}

// FuzzListSchedule holds ListSchedule and Plan.Makespan to the oracle on
// decoded circuits. The seeds include a reversed-arrival circuit at one
// block, which drives the overflow heap, and a serial Toffoli chain.
func FuzzListSchedule(f *testing.F) {
	reversed := []byte{5, 1} // 8 qubits, 1 block
	for q := byte(0); q < 8; q++ {
		reversed = append(reversed, 0, q, 0) // root H on every qubit
	}
	for q := byte(8); q > 0; q-- {
		reversed = append(reversed, 1, q-1, 0) // leaf T, last qubit first
	}
	f.Add(reversed)
	chain := []byte{0, 2} // 3 qubits, 2 blocks
	for i := 0; i < 40; i++ {
		chain = append(chain, 3|2<<2, 0, 1) // Toffoli(0, 1, 2)
	}
	f.Add(chain)
	mixed := []byte{9, 3}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		mixed = append(mixed, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, blocks := fuzzCircuit(data)
		d := circuit.BuildDAG(c)
		matchOracle(t, "fuzz", d, sched.NewPlan(d), blocks)
	})
}

// TestPlanMakespanSkipsStartTable: Plan.Makespan runs the dispatch loop
// ListSchedule runs but records no start slots, so a fresh plan's first
// makespan allocates fewer times than a list schedule does — the
// difference being the per-instruction Start table — beyond the plan and
// its memo entry.
func TestPlanMakespanSkipsStartTable(t *testing.T) {
	d := circuit.BuildDAG(gen.QFT(64, false))
	list := testing.AllocsPerRun(10, func() { sched.ListSchedule(d, 36) })
	planOnly := testing.AllocsPerRun(10, func() { sched.NewPlan(d).Makespan(0) })
	planned := testing.AllocsPerRun(10, func() { sched.NewPlan(d).Makespan(36) })
	if loop := planned - planOnly; loop != list-1 {
		t.Errorf("Plan.Makespan's schedule allocates %v times, ListSchedule %v: want exactly the Start table fewer", loop, list)
	}
}

// bytesPerInstruction bounds a schedule's allocations, its Start table
// included, per instruction of the circuit.
const bytesPerInstruction = 64

// TestListScheduleBytesPerInstruction: a schedule's memory grows with the
// instruction count alone, not with the critical path in slots (a serial
// Toffoli chain of 100k instructions reaches priority 1.5M) nor with the
// block budget (qcirc sched passes any -blocks, 2^30 among them).
func TestListScheduleBytesPerInstruction(t *testing.T) {
	eight := circuit.New(4)
	for q := 0; q < 4; q++ {
		eight.AddH(q)
	}
	eight.AddToffoli(0, 1, 2)
	eight.AddCNOT(2, 3)
	eight.AddT(0)
	eight.AddToffoli(3, 2, 1)
	for _, tc := range []struct {
		name   string
		c      *circuit.Circuit
		blocks int
	}{
		{"100k-Toffoli chain", toffoliChain(100_000), 36},
		{"100k-Toffoli chain", toffoliChain(100_000), 1 << 30},
		{"8-gate circuit", eight, 1 << 30},
	} {
		d := circuit.BuildDAG(tc.c)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sched.ListSchedule(d, tc.blocks)
		runtime.ReadMemStats(&after)
		n := tc.c.Len()
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(bytesPerInstruction*n) {
			t.Errorf("%s at %d blocks: %d bytes for %d instructions, want at most %d a instruction",
				tc.name, tc.blocks, got, n, bytesPerInstruction)
		}
	}
}

// TestUtilizationSweepMatchesListSchedule: each point of a utilization
// sweep is bit-for-bit ListSchedule's utilization, zero for unlimited
// budgets and the empty circuit included, and the sweep allocates no
// Start table: its allocations are the output slice plus one dispatch
// loop's per budget, where ListSchedule adds the Start table to the loop.
func TestUtilizationSweepMatchesListSchedule(t *testing.T) {
	budgets := []int{-1, 0, 1, 4, 16, 36, 64, 100, 144, 196, 5000}
	for _, c := range []*circuit.Circuit{gen.CarryLookahead(64).Circuit, gen.QFT(16, false), circuit.New(2)} {
		d := circuit.BuildDAG(c)
		got := sched.UtilizationSweep(d, budgets)
		for i, b := range budgets {
			if want := sched.ListSchedule(d, b).Utilization(); got[i] != want {
				t.Errorf("%d instructions at %d blocks: sweep utilization %v, ListSchedule %v", c.Len(), b, got[i], want)
			}
		}
	}
	d := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
	list := testing.AllocsPerRun(10, func() { sched.ListSchedule(d, 36) })
	sweep := testing.AllocsPerRun(10, func() { sched.UtilizationSweep(d, []int{36, 64}) })
	if want := 1 + 2*(list-1); sweep != want {
		t.Errorf("UtilizationSweep at two budgets allocates %v times, want %v (ListSchedule: %v)", sweep, want, list)
	}
}
