package circuit

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refDAG is the pre-arena reference construction: per-instruction slice
// appends with a map-based dedup, kept verbatim as the oracle the arena
// build must match edge for edge, in order.
type refDAG struct {
	deps  [][]int
	succs [][]int
	asap  []int
	depth int
}

func buildRef(c *Circuit) *refDAG {
	d := &refDAG{
		deps:  make([][]int, c.Len()),
		succs: make([][]int, c.Len()),
		asap:  make([]int, c.Len()),
	}
	last := make([]int, c.NumQubits())
	for i := range last {
		last[i] = -1
	}
	for i, in := range c.Instrs() {
		seen := map[int]bool{}
		for _, q := range in.Operands() {
			if p := last[q]; p >= 0 && !seen[p] {
				seen[p] = true
				d.deps[i] = append(d.deps[i], p)
				d.succs[p] = append(d.succs[p], i)
			}
			last[q] = i
		}
		start := 0
		for _, p := range d.deps[i] {
			if end := d.asap[p] + c.Instr(p).Slots(); end > start {
				start = end
			}
		}
		d.asap[i] = start
		if end := start + in.Slots(); end > d.depth {
			d.depth = end
		}
	}
	return d
}

// randomCircuit emits a gate soup over nq qubits: enough Toffolis to
// exercise three-operand dedup, and repeated operands on one instruction
// are impossible by construction (NewInstr enforces distinctness).
func randomCircuit(rng *rand.Rand, nq, instrs int) *Circuit {
	c := New(nq)
	for i := 0; i < instrs; i++ {
		q1 := rng.Intn(nq)
		q2 := (q1 + 1 + rng.Intn(nq-1)) % nq
		switch rng.Intn(4) {
		case 0:
			c.AddH(q1)
		case 1:
			c.AddCNOT(q1, q2)
		case 2:
			q3 := q1
			for q3 == q1 || q3 == q2 {
				q3 = rng.Intn(nq)
			}
			c.AddToffoli(q1, q2, q3)
		default:
			c.AddCZ(q1, q2)
		}
	}
	return c
}

// sharedOperandCircuit makes two operands of one instruction share a
// last-writer, the case the dedup buffer exists for.
func sharedOperandCircuit() *Circuit {
	c := New(3)
	c.AddCNOT(0, 1)       // instr 0 writes qubits 0 and 1
	c.AddToffoli(0, 1, 2) // both controls depend on instr 0: one edge, not two
	c.AddCNOT(1, 2)       // two operands, same last writer again
	return c
}

func equivalent(t *testing.T, name string, c *Circuit) {
	t.Helper()
	got := BuildDAG(c)
	want := buildRef(c)
	if got.Depth() != want.depth {
		t.Errorf("%s: depth %d, want %d", name, got.Depth(), want.depth)
	}
	for i := 0; i < c.Len(); i++ {
		if g, w := got.Deps(i), want.deps[i]; !sameIndices(g, w) {
			t.Errorf("%s: Deps(%d) = %v, want %v", name, i, g, w)
		}
		if g, w := got.Succs(i), want.succs[i]; !sameIndices(g, w) {
			t.Errorf("%s: Succs(%d) = %v, want %v", name, i, g, w)
		}
		if got.ASAPStart(i) != want.asap[i] {
			t.Errorf("%s: ASAPStart(%d) = %d, want %d", name, i, got.ASAPStart(i), want.asap[i])
		}
	}
}

// sameIndices reports whether the arena's int32 index list a holds the
// reference list b, element for element.
func sameIndices(a []int32, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if int(a[i]) != b[i] {
			return false
		}
	}
	return true
}

// TestArenaDAGMatchesReference pins the arena build to the historical
// construction: identical edges in identical order, identical schedule.
func TestArenaDAGMatchesReference(t *testing.T) {
	equivalent(t, "empty", New(2))
	equivalent(t, "shared-operand", sharedOperandCircuit())
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nq := 3 + rng.Intn(12)
		c := randomCircuit(rng, nq, 1+rng.Intn(200))
		equivalent(t, "random", c)
	}
}

// TestBuildDAGIntoReuses proves the rebuild path reuses the arena: after
// one build at a given size, rebuilding over same-or-smaller circuits
// performs zero allocations.
func TestBuildDAGIntoReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := randomCircuit(rng, 10, 300)
	small := randomCircuit(rng, 8, 100)
	d := BuildDAG(big)
	if n := testing.AllocsPerRun(100, func() { BuildDAGInto(d, big) }); n != 0 {
		t.Errorf("BuildDAGInto same circuit: %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { BuildDAGInto(d, small) }); n != 0 {
		t.Errorf("BuildDAGInto smaller circuit: %v allocs/run, want 0", n)
	}
	// The rebuilt graph must be indistinguishable from a fresh build.
	BuildDAGInto(d, small)
	fresh := BuildDAG(small)
	for i := 0; i < small.Len(); i++ {
		if !slices.Equal(d.Deps(i), fresh.Deps(i)) || !slices.Equal(d.Succs(i), fresh.Succs(i)) {
			t.Fatalf("rebuilt DAG diverges from fresh build at instruction %d", i)
		}
	}
	if !reflect.DeepEqual(d.Profile(), fresh.Profile()) {
		t.Error("rebuilt DAG profile diverges from fresh build")
	}
}

// TestBuildDAGAllocationBudget guards the tentpole: a fresh build is a
// handful of allocations (struct, arena, scratch), not thousands of
// per-instruction appends.
func TestBuildDAGAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCircuit(rng, 16, 2000)
	if n := testing.AllocsPerRun(20, func() { BuildDAG(c) }); n > 4 {
		t.Errorf("BuildDAG: %v allocs/run, want <= 4", n)
	}
}
