package sched_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/minheap"
	"repro/internal/sched"
)

// oracleListSchedule is the closure-heap list scheduler the packed-key
// dispatch loop replaced, kept verbatim as the reference it must match:
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

// oracleBudgets spans one block, the paper's block counts and more blocks
// than most of the test circuits can use; 0 is unlimited.
var oracleBudgets = []int{0, 1, 4, 9, 15, 36, 100}

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

// oracleDAGs returns every kernel arch.Kinds builds, at two widths, and a
// set of seeded random circuits.
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
	for seed := int64(1); seed <= 24; seed++ {
		out[fmt.Sprintf("random/%d", seed)] = circuit.BuildDAG(randomMixed(seed))
	}
	out["empty"] = circuit.BuildDAG(circuit.New(2))
	return out
}

// TestListScheduleMatchesOracle pins the packed-key dispatch loop to the
// closure-heap scheduler it replaced: identical start slots, makespan,
// busy slots and block count on every kernel and random circuit at every
// budget, and Plan.Makespan equal to the oracle's makespan.
func TestListScheduleMatchesOracle(t *testing.T) {
	for name, d := range oracleDAGs(t) {
		plan := sched.NewPlan(d)
		for _, b := range oracleBudgets {
			want := oracleListSchedule(d, b)
			got := sched.ListSchedule(d, b)
			if got.Blocks != want.Blocks || got.MakespanSlots != want.MakespanSlots ||
				got.BusySlots != want.BusySlots || !slices.Equal(got.Start, want.Start) {
				t.Errorf("%s at %d blocks: schedule diverges from the oracle (makespan %d vs %d)",
					name, b, got.MakespanSlots, want.MakespanSlots)
			}
			if m := plan.Makespan(b); m != want.MakespanSlots {
				t.Errorf("%s at %d blocks: Plan.Makespan %d, oracle %d", name, b, m, want.MakespanSlots)
			}
		}
	}
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
