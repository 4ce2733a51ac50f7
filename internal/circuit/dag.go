package circuit

import (
	"fmt"
	"math"
)

// DAG is the data-dependency graph of a circuit: instruction j depends on
// instruction i when they share a qubit and i precedes j in program order
// (quantum gates on a common qubit never commute at this modeling
// granularity, so any shared operand serializes).
//
// The graph is stored arena-style: every dependency and successor list is a
// window into one flat index slice addressed through an offset table, so a
// build performs a fixed, small number of allocations regardless of circuit
// size, and BuildDAGInto can rebuild into an existing DAG with none at all.
//
// Every index in the arena is an int32, half the bytes of an int: an
// instruction index, an edge offset or a start slot. So a circuit's
// instruction count, dependency-edge count and total slots must each be
// at most math.MaxInt32; BuildDAGInto panics past that bound.
type DAG struct {
	c *Circuit

	// arena is the single backing allocation all index slices below are
	// carved from; it is retained so BuildDAGInto can reuse its capacity.
	arena []int32

	deps    []int32 // flat dependency lists, deps[depOff[i]:depOff[i+1]]
	succs   []int32 // flat successor lists, succs[succOff[i]:succOff[i+1]]
	depOff  []int32 // len(c.Len())+1 offsets into deps
	succOff []int32 // len(c.Len())+1 offsets into succs
	asap    []int32 // earliest start slot of each instruction
	depth   int     // critical path length in slots

	// scratch holds the last-instruction-per-qubit table during builds; it
	// is dead outside BuildDAGInto and retained only to amortize reuse.
	scratch []int32
}

// BuildDAG constructs the dependency graph and ASAP schedule of c.
func BuildDAG(c *Circuit) *DAG {
	return BuildDAGInto(new(DAG), c)
}

// BuildDAGInto rebuilds d as the dependency graph of c, reusing d's arena
// when its capacity suffices, and returns d. A DAG rebuilt over circuits of
// non-increasing size allocates nothing, which makes repeated compilation
// (one DAG per worker, many circuits) free of per-build garbage.
//
//cqla:noalloc
func BuildDAGInto(d *DAG, c *Circuit) *DAG {
	n := c.Len()
	nq := c.NumQubits()
	d.c = c
	d.depth = 0

	if cap(d.scratch) < nq {
		//lint:ignore-cqla noalloc arena growth on first build or a larger circuit; steady-state rebuilds reuse capacity
		d.scratch = make([]int32, nq)
	}
	last := d.scratch[:nq]
	for q := range last {
		last[q] = -1
	}

	// Pass 1: count dependency edges. An instruction's dependencies are the
	// distinct last-writers of its operands (arity <= 3, so deduplication is
	// a couple of comparisons), and every dependency edge is also exactly
	// one successor edge.
	edges, slots := 0, 0
	instrs := c.Instrs()
	for i := range instrs {
		var d0, d1 int32 = -1, -1
		for _, q := range instrs[i].Operands() {
			if p := last[q]; p >= 0 && p != d0 && p != d1 {
				if d0 < 0 {
					d0 = p
				} else {
					d1 = p
				}
				edges++
			}
			last[q] = int32(i)
		}
		slots += instrs[i].Slots()
	}
	checkDAGBound(n, edges, slots)

	// Carve every index slice from one arena: the two flat edge lists, the
	// two offset tables and the ASAP schedule.
	need := 2*edges + 2*(n+1) + n
	if cap(d.arena) < need {
		//lint:ignore-cqla noalloc arena growth on first build or a larger circuit; steady-state rebuilds reuse capacity
		d.arena = make([]int32, need)
	}
	a := d.arena[:need]
	d.deps, a = a[:edges], a[edges:]
	d.succs, a = a[:edges], a[edges:]
	d.depOff, a = a[:n+1], a[n+1:]
	d.succOff, a = a[:n+1], a[n+1:]
	d.asap = a[:n]

	// Pass 2: fill the dependency lists (in first-occurrence operand order,
	// matching the historical append order), accumulate successor counts,
	// and compute the ASAP schedule — deps[i] is complete by the time it is
	// read, because dependencies always precede their dependents.
	for q := range last {
		last[q] = -1
	}
	for i := range d.succOff {
		d.succOff[i] = 0
	}
	var pos int32
	for i := range instrs {
		d.depOff[i] = pos
		for _, q := range instrs[i].Operands() {
			if p := last[q]; p >= 0 && !contains(d.deps[d.depOff[i]:pos], p) {
				d.deps[pos] = p
				pos++
				d.succOff[p+1]++
			}
			last[q] = int32(i)
		}
		var start int32
		for _, p := range d.deps[d.depOff[i]:pos] {
			if end := d.asap[p] + int32(instrs[p].Slots()); end > start {
				start = end
			}
		}
		d.asap[i] = start
		if end := int(start) + instrs[i].Slots(); end > d.depth {
			d.depth = end
		}
	}
	d.depOff[n] = pos

	// Pass 3: place successor edges. Prefix-summing the counts turns
	// succOff into placement cursors; walking the dependency lists in
	// instruction order fills each successor list in ascending order, after
	// which the cursors have shifted one slot left and are restored.
	for i := 1; i <= n; i++ {
		d.succOff[i] += d.succOff[i-1]
	}
	for i := 0; i < n; i++ {
		for _, p := range d.deps[d.depOff[i]:d.depOff[i+1]] {
			d.succs[d.succOff[p]] = int32(i)
			d.succOff[p]++
		}
	}
	copy(d.succOff[1:], d.succOff[:n])
	d.succOff[0] = 0
	return d
}

// checkDAGBound panics when a circuit of n instructions, edges dependency
// edges and slots total slots would overflow the int32 arena: instruction
// indices, edge offsets and start slots (no start exceeds the total).
func checkDAGBound(n, edges, slots int) {
	if n > math.MaxInt32 || edges > math.MaxInt32 || slots > math.MaxInt32 {
		panic(fmt.Sprintf("circuit: %d instructions, %d dependency edges and %d slots exceed the DAG's int32 bound of %d", n, edges, slots, math.MaxInt32))
	}
}

// contains reports whether the (at most two-element) dependency window
// already holds p.
func contains(deps []int32, p int32) bool {
	for _, v := range deps {
		if v == p {
			return true
		}
	}
	return false
}

// Circuit returns the underlying circuit.
func (d *DAG) Circuit() *Circuit { return d.c }

// Deps returns the dependency list of instruction i.
func (d *DAG) Deps(i int) []int32 { return d.deps[d.depOff[i]:d.depOff[i+1]] }

// Succs returns the successors of instruction i.
func (d *DAG) Succs(i int) []int32 { return d.succs[d.succOff[i]:d.succOff[i+1]] }

// ASAPStart returns the earliest possible start slot of instruction i under
// unlimited resources.
func (d *DAG) ASAPStart(i int) int { return int(d.asap[i]) }

// Depth returns the critical-path length in two-qubit-gate slots: the
// makespan achievable with unlimited compute resources. This is the
// "Unlimited Resources" curve's extent in Figure 2.
func (d *DAG) Depth() int { return d.depth }

// TotalSlots returns the serial work of the circuit in slots.
func (d *DAG) TotalSlots() int {
	total := 0
	for _, in := range d.c.Instrs() {
		total += in.Slots()
	}
	return total
}

// MaxParallelism returns the peak number of simultaneously executing
// instructions in the ASAP schedule.
func (d *DAG) MaxParallelism() int {
	peak := 0
	for _, w := range d.Profile() {
		if w > peak {
			peak = w
		}
	}
	return peak
}

// Profile returns, for each slot of the ASAP (unlimited-resource) schedule,
// the number of instructions executing during that slot — the
// "Unlimited Resources" series of Figure 2.
func (d *DAG) Profile() []int {
	prof := make([]int, d.depth)
	for i, in := range d.c.Instrs() {
		for t := int(d.asap[i]); t < int(d.asap[i])+in.Slots(); t++ {
			prof[t]++
		}
	}
	return prof
}
