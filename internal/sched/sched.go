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
// y-axis of Figure 6(a). It returns 0 for an empty schedule and for
// unlimited blocks: a Result carries no circuit, so it has no peak
// concurrency to stand in for the block count.
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

// ListSchedule runs critical-path-first list scheduling of the circuit onto
// the given number of compute blocks; blocks <= 0 means unlimited (the
// schedule then equals the ASAP schedule). Instructions become ready when
// every dependency has completed; among ready instructions the one with the
// longest remaining path to the circuit's end is dispatched first, ties to
// the lower index. The circuit must respect the bound of the packed
// schedule keys: fewer than 2^32 instructions and fewer than 2^32 busy
// slots, which also caps the critical path and the makespan below 2^32.
// ListSchedule panics past it. The DAG's int32 arena is the tighter bound
// in practice: circuit.BuildDAG already panics above math.MaxInt32
// (2^31-1) instructions, dependency edges or total slots.
func ListSchedule(d *circuit.DAG, blocks int) Result {
	c := d.Circuit()
	n := c.Len()
	res := Result{Blocks: blocks, Start: make([]int, n)}
	if n == 0 {
		return res
	}
	if blocks <= 0 {
		// Unlimited resources: ASAP, whose makespan is the critical path.
		res.Blocks = 0
		for i, in := range c.Instrs() {
			res.Start[i] = d.ASAPStart(i)
			res.BusySlots += in.Slots()
		}
		res.MakespanSlots = d.Depth()
		return res
	}
	res.MakespanSlots, res.BusySlots = listSchedule(d, blocks, res.Start)
	return res
}

// keyLimit bounds every field packed into a 32-bit half of a schedule
// key: instruction indices, critical-path priorities and end slots.
const keyLimit = 1 << 32

// checkKeyBound panics when a circuit of n instructions and busy total
// slots would overflow the packed schedule keys. The busy slots bound the
// critical path and every end slot, so one check covers all three fields.
func checkKeyBound(n int, busy uint64) {
	if uint64(n) >= keyLimit || busy >= keyLimit {
		panic(fmt.Sprintf("sched: %d instructions and %d busy slots exceed the packed schedule keys' bound of 2^32", n, busy))
	}
}

// keyLess orders packed schedule keys; both heaps pop their least key.
func keyLess(a, b uint64) bool { return a < b }

// listSchedule is the block-limited dispatch loop behind ListSchedule and
// Plan.Makespan: blocks must be positive. It writes each instruction's
// start slot into start when start is non-nil and returns the makespan and
// the busy slots.
//
// Both queues hold packed uint64 keys, so the heap compares plain integers
// instead of chasing per-instruction tables. A ready key is the bitwise
// complement of the instruction's priority over its index: the least key
// is the longest remaining path, ties to the lower index. A running key is
// the end slot over the index; every instruction ending at one slot is
// released before the next dispatch, and the ready order is total, so the
// order they leave the running heap in cannot change the schedule.
func listSchedule(d *circuit.DAG, blocks int, start []int) (makespan, busy int) {
	c := d.Circuit()
	n := c.Len()
	// The slot table holds each instruction's duration in one byte (no
	// kind lasts longer than ToffoliSlots), so dispatch never reloads the
	// 24-byte instruction.
	slots := make([]uint8, n)
	var total uint64
	for i, in := range c.Instrs() {
		slots[i] = uint8(in.Slots())
		total += uint64(slots[i])
	}
	checkKeyBound(n, total)

	prio := criticalPathPriority(d, slots)
	deps := make([]int32, n)
	// Instructions sharing a qubit are ordered by the DAG, so the ready
	// and running instructions together touch distinct qubits: the qubit
	// count bounds the ready set, however long the circuit.
	ready := minheap.New(min(n, c.NumQubits()), keyLess)
	for i := range deps {
		deps[i] = int32(len(d.Deps(i)))
		if deps[i] == 0 {
			ready.Push(uint64(^prio[i])<<32 | uint64(i))
		}
	}
	running := minheap.New(min(blocks, n), keyLess)
	now, free := 0, blocks
	for scheduled := 0; scheduled < n; {
		// Dispatch as many ready instructions as blocks allow.
		for ; free > 0 && ready.Len() > 0; free-- {
			i := int(uint32(ready.Pop()))
			if start != nil {
				start[i] = now
			}
			end := now + int(slots[i])
			running.Push(uint64(end)<<32 | uint64(i))
			scheduled++
			makespan = max(makespan, end)
		}
		if running.Len() == 0 {
			panic("sched: deadlock — dependency cycle in DAG")
		}
		// Advance to the next completion and release its successors.
		next := running.Peek() >> 32
		now = int(next)
		for running.Len() > 0 && running.Peek()>>32 == next {
			i := int(uint32(running.Pop()))
			free++
			for _, s := range d.Succs(i) {
				if deps[s]--; deps[s] == 0 {
					ready.Push(uint64(^prio[s])<<32 | uint64(s))
				}
			}
		}
	}
	return makespan, int(total)
}

// criticalPathPriority computes, for every instruction, the length in slots
// of the longest dependent chain starting at it (inclusive), reading
// durations from the slot table.
func criticalPathPriority(d *circuit.DAG, slots []uint8) []uint32 {
	prio := make([]uint32, len(slots))
	// Instructions are appended in topological order, so a reverse sweep
	// sees all successors first.
	for i := len(slots) - 1; i >= 0; i-- {
		var longest uint32
		for _, s := range d.Succs(i) {
			longest = max(longest, prio[s])
		}
		prio[i] = longest + uint32(slots[i])
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
			if end := r.Start[p] + c.Instr(int(p)).Slots(); r.Start[i] < end {
				return fmt.Errorf("sched: instr %d starts at %d before dep %d finishes at %d",
					i, r.Start[i], p, end)
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
