// Package sched schedules logical circuits onto a bounded set of compute
// blocks. Each CQLA compute block (nine logical data qubits plus eighteen
// logical ancilla) hosts one logical gate at a time: a transversal one- or
// two-qubit gate occupies its block for one slot, a fault-tolerant Toffoli
// for fifteen. The scheduler is the substrate for the paper's parallelism
// study: Figure 2 (gates in parallel over time, unlimited vs 15 blocks),
// Figure 6(a) (utilization vs block count) and the speedup columns of
// Table 4.
package sched

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/minheap"
)

// Result is the outcome of scheduling one circuit onto a block budget.
type Result struct {
	// Blocks is the compute-block budget (0 = unlimited).
	Blocks int
	// MakespanSlots is the schedule length in two-qubit-gate slots.
	MakespanSlots int
	// BusySlots is the total block-occupancy (the circuit's serial work).
	BusySlots int
	// Start holds each instruction's scheduled start slot.
	Start []int
}

// Utilization returns busy block-slots over available block-slots — the
// y-axis of Figure 6(a). For unlimited blocks it uses the peak concurrency
// as the denominator's width.
func (r Result) Utilization() float64 {
	if r.MakespanSlots == 0 || r.Blocks == 0 {
		return 0
	}
	return float64(r.BusySlots) / float64(r.Blocks*r.MakespanSlots)
}

// Profile returns the number of instructions in flight at each slot — the
// series plotted in Figure 2.
func (r Result) Profile(c *circuit.Circuit) []int {
	prof := make([]int, r.MakespanSlots)
	for i, in := range c.Instrs() {
		for t := r.Start[i]; t < r.Start[i]+in.Slots(); t++ {
			prof[t]++
		}
	}
	return prof
}

// PeakParallelism returns the maximum number of concurrently executing
// instructions in the schedule.
func (r Result) PeakParallelism(c *circuit.Circuit) int {
	peak := 0
	for _, w := range r.Profile(c) {
		if w > peak {
			peak = w
		}
	}
	return peak
}

// ListSchedule runs critical-path-first list scheduling of the circuit onto
// the given number of compute blocks; blocks <= 0 means unlimited (the
// schedule then equals the ASAP schedule). Instructions become ready when
// every dependency has completed; among ready instructions the one with the
// longest remaining path to the circuit's end is dispatched first.
func ListSchedule(d *circuit.DAG, blocks int) Result {
	c := d.Circuit()
	n := c.Len()
	res := Result{Blocks: blocks, Start: make([]int, n)}
	for _, in := range c.Instrs() {
		res.BusySlots += in.Slots()
	}
	if n == 0 {
		return res
	}
	if blocks <= 0 {
		// Unlimited resources: ASAP.
		res.Blocks = 0
		for i := range res.Start {
			res.Start[i] = d.ASAPStart(i)
			if end := res.Start[i] + c.Instr(i).Slots(); end > res.MakespanSlots {
				res.MakespanSlots = end
			}
		}
		return res
	}

	prio := criticalPathPriority(d)
	remainingDeps := make([]int, n)
	// Ready instructions pop longest-remaining-path first, ties to the
	// lower index; running ones pop by end slot, then instruction. Both
	// are total orders, so the schedule is fully determined.
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

	running := minheap.New(min(blocks, n), func(a, b finishEntry) bool {
		if a.end != b.end {
			return a.end < b.end
		}
		return a.instr < b.instr
	})
	now := 0
	free := blocks
	scheduled := 0
	for scheduled < n {
		// Dispatch as many ready instructions as blocks allow.
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
			if ready.Len() == 0 && scheduled < n {
				panic("sched: deadlock — dependency cycle in DAG")
			}
			continue
		}
		// Advance to the next completion and release its successors.
		now = running.Peek().end
		for running.Len() > 0 && running.Peek().end == now {
			e := running.Pop()
			free++
			for _, s := range d.Succs(e.instr) {
				remainingDeps[s]--
				if remainingDeps[s] == 0 {
					ready.Push(s)
				}
			}
		}
	}
	return res
}

// finishEntry is a running instruction and the slot it completes at.
type finishEntry struct {
	end   int
	instr int
}

// criticalPathPriority computes, for every instruction, the length in slots
// of the longest dependent chain starting at it (inclusive).
func criticalPathPriority(d *circuit.DAG) []int {
	c := d.Circuit()
	n := c.Len()
	prio := make([]int, n)
	// Instructions are appended in topological order, so a reverse sweep
	// sees all successors first.
	for i := n - 1; i >= 0; i-- {
		longest := 0
		for _, s := range d.Succs(i) {
			if prio[s] > longest {
				longest = prio[s]
			}
		}
		prio[i] = longest + c.Instr(i).Slots()
	}
	return prio
}

// UtilizationSweep schedules the circuit at each block budget and returns
// the utilizations — one curve of Figure 6(a).
func UtilizationSweep(d *circuit.DAG, blockCounts []int) []float64 {
	out := make([]float64, len(blockCounts))
	for i, k := range blockCounts {
		out[i] = ListSchedule(d, k).Utilization()
	}
	return out
}

// SpeedupVsUnlimited returns makespan(unlimited)/makespan(blocks): 1.0 when
// the block budget captures all available parallelism. Figure 2's message
// is that 15 blocks suffice for the 64-qubit adder.
func SpeedupVsUnlimited(d *circuit.DAG, blocks int) float64 {
	limited := ListSchedule(d, blocks)
	if limited.MakespanSlots == 0 {
		return 1
	}
	return float64(d.Depth()) / float64(limited.MakespanSlots)
}

// KneeBlocks returns the smallest block count whose makespan is within
// tolerance of the unlimited-resource makespan (e.g. tolerance 0.02 accepts
// a 2% slowdown). It binary-searches on the monotone makespan curve.
func KneeBlocks(d *circuit.DAG, tolerance float64) int {
	if d.Circuit().Len() == 0 {
		return 0
	}
	target := int(math.Ceil(float64(d.Depth()) * (1 + tolerance)))
	lo, hi := 1, 1
	for ListSchedule(d, hi).MakespanSlots > target {
		hi *= 2
		if hi > d.Circuit().Len() {
			hi = d.Circuit().Len()
			break
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if ListSchedule(d, mid).MakespanSlots <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Validate checks that a schedule respects dependencies and the block
// budget; used by the property tests.
func (r Result) Validate(d *circuit.DAG) error {
	c := d.Circuit()
	for i := range c.Instrs() {
		for _, p := range d.Deps(i) {
			if r.Start[i] < r.Start[p]+c.Instr(p).Slots() {
				return fmt.Errorf("sched: instr %d starts at %d before dep %d finishes at %d",
					i, r.Start[i], p, r.Start[p]+c.Instr(p).Slots())
			}
		}
	}
	if r.Blocks > 0 {
		for t, w := range r.Profile(c) {
			if w > r.Blocks {
				return fmt.Errorf("sched: %d instructions in flight at slot %d with only %d blocks", w, t, r.Blocks)
			}
		}
	}
	return nil
}
