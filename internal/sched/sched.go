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

// keyLess orders packed schedule keys; the ready set's overflow heap pops
// its least key.
func keyLess(a, b uint64) bool { return a < b }

// listSchedule is the block-limited dispatch loop behind ListSchedule,
// Plan.Makespan, UtilizationSweep and KneeBlocks: blocks must be positive.
// It writes each instruction's start slot into start when start is
// non-nil and returns the makespan and the busy slots.
//
// The ready frontier is a readySet: one bucket per distinct critical-path
// priority, popping the longest remaining path first, ties to the lower
// index. The running set is one runLane per distinct duration; the next
// completion is the least lane head. Every instruction ending at one slot
// is released before the next dispatch, and the ready order is total, so
// the order the lanes release them in cannot change the schedule.
//
// Every table is carved from one uint32 arena: per instruction its rank
// and its dependency counter, which turns into its bucket link once the
// instruction is ready; the priority bitmap and its prefix counts; per
// rank its bucket tail and the bucket tree; and the lanes.
func listSchedule(d *circuit.DAG, blocks int, start []int) (makespan, busy int) {
	c := d.Circuit()
	n := c.Len()
	// The slot table holds each instruction's duration in one byte (no
	// kind lasts longer than ToffoliSlots), so dispatch never reloads the
	// 24-byte instruction.
	slots := make([]uint8, n)
	var perSlots [maxSlots + 1]int
	var total uint64
	for i, in := range c.Instrs() {
		slots[i] = uint8(in.Slots())
		perSlots[slots[i]]++
		total += uint64(slots[i])
	}
	checkKeyBound(n, total)

	// Each duration gets a lane holding at most min(blocks, its
	// instructions), so the lanes hold at most n entries together.
	var laneOf [maxSlots + 1]uint8
	var lanes [maxSlots + 1]runLane
	numLanes, ringWords := 0, 0
	for dur, count := range perSlots {
		if count > 0 {
			laneOf[dur] = uint8(numLanes)
			lanes[numLanes].dur = dur
			ringWords += 2 * min(blocks, count)
			numLanes++
		}
	}

	// The critical path bounds every priority, and the instruction count
	// bounds how many distinct ones there are.
	bitmapWords := d.Depth()/32 + 1
	maxRanks := min(n, d.Depth()+1)
	arena := make([]uint32, 2*n+2*bitmapWords+maxRanks+treeWords(maxRanks)+ringWords)
	rank, a := arena[:n], arena[n:]
	deps, a := a[:n], a[n:]
	present, a := a[:bitmapWords], a[bitmapWords:]
	prefix, a := a[:bitmapWords], a[bitmapWords:]
	for l := range lanes[:numLanes] {
		words := 2 * min(blocks, perSlots[lanes[l].dur])
		lanes[l].ring, a = a[:words], a[words:]
	}

	criticalPathPriority(d, slots, rank)
	ranks := rankPriorities(rank, present, prefix)
	// Instructions sharing a qubit are ordered by the DAG, so the ready
	// and running instructions together touch distinct qubits: the qubit
	// count bounds the ready set, however long the circuit. A ready
	// instruction's dependency counter has reached zero and is never read
	// again, so the counter table doubles as the buckets' links.
	ready := newReadySet(rank, deps, a, ranks, min(n, c.NumQubits()))
	for i := range deps {
		deps[i] = uint32(len(d.Deps(i)))
		if deps[i] == 0 {
			ready.push(uint32(i))
		}
	}
	now, free := 0, blocks
	for scheduled := 0; scheduled < n; {
		// Dispatch as many ready instructions as blocks allow.
		for ; free > 0 && !ready.empty(); free-- {
			i := ready.pop()
			if start != nil {
				start[i] = now
			}
			l := &lanes[laneOf[slots[i]]]
			end := now + l.dur
			l.push(end, i)
			scheduled++
			makespan = max(makespan, end)
		}
		if free == blocks {
			panic("sched: deadlock — dependency cycle in DAG")
		}
		// Advance to the next completion and release its successors.
		now = math.MaxInt
		for l := range lanes[:numLanes] {
			if lanes[l].n > 0 {
				now = min(now, lanes[l].headEnd())
			}
		}
		for l := range lanes[:numLanes] {
			lane := &lanes[l]
			for lane.n > 0 && lane.headEnd() == now {
				i := lane.pop()
				free++
				for _, s := range d.Succs(int(i)) {
					if deps[s]--; deps[s] == 0 {
						ready.push(uint32(s))
					}
				}
			}
		}
	}
	return makespan, int(total)
}

// maxSlots is the longest instruction duration, which sizes the
// per-duration tables: no kind lasts longer than a Toffoli.
const maxSlots = circuit.ToffoliSlots

// criticalPathPriority writes into prio, for every instruction, the length
// in slots of the longest dependent chain starting at it (inclusive),
// reading durations from the slot table.
func criticalPathPriority(d *circuit.DAG, slots []uint8, prio []uint32) {
	// Instructions are appended in topological order, so a reverse sweep
	// sees all successors first.
	for i := len(slots) - 1; i >= 0; i-- {
		var longest uint32
		for _, s := range d.Succs(i) {
			longest = max(longest, prio[s])
		}
		prio[i] = longest + uint32(slots[i])
	}
}

// UtilizationSweep schedules the circuit at each block budget and returns
// the utilizations — one curve of Figure 6(a). Each equals
// ListSchedule(d, k).Utilization() without the start table.
func UtilizationSweep(d *circuit.DAG, blockCounts []int) []float64 {
	out := make([]float64, len(blockCounts))
	for i, k := range blockCounts {
		if k <= 0 || d.Circuit().Len() == 0 {
			continue // Utilization's zero for unlimited budgets and empty schedules
		}
		makespan, busy := listSchedule(d, k, nil)
		out[i] = Result{Blocks: k, MakespanSlots: makespan, BusySlots: busy}.Utilization()
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
	makespan := func(blocks int) int {
		m, _ := listSchedule(d, blocks, nil)
		return m
	}
	lo, hi := 1, 1
	for makespan(hi) > target {
		hi *= 2
		if hi > d.Circuit().Len() {
			hi = d.Circuit().Len()
			break
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if makespan(mid) <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
