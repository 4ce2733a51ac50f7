package minheap

import (
	"math/rand"
	"sort"
	"testing"
)

// entry is ordered by key, then id: a total order with plenty of key ties.
type entry struct{ key, id int }

func entryLess(a, b entry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

// TestPopOrderMatchesSortOracle drives the heap with random interleaved
// pushes and pops and checks every Pop and Peek against a sorted copy of
// the live set, draining it between passes.
func TestPopOrderMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := New[entry](4, entryLess)
	var live []entry
	id := 0
	popMin := func() {
		t.Helper()
		sort.Slice(live, func(i, j int) bool { return entryLess(live[i], live[j]) })
		if got := h.Peek(); got != live[0] {
			t.Fatalf("Peek = %+v, want %+v", got, live[0])
		}
		if got := h.Pop(); got != live[0] {
			t.Fatalf("Pop = %+v, want %+v", got, live[0])
		}
		live = live[1:]
	}
	for pass := 0; pass < 3; pass++ {
		for round := 0; round < 2000; round++ {
			if h.Len() == 0 || rng.Intn(3) > 0 {
				id++
				e := entry{key: rng.Intn(40), id: id}
				h.Push(e)
				live = append(live, e)
			} else {
				popMin()
			}
			if h.Len() != len(live) {
				t.Fatalf("Len = %d, want %d", h.Len(), len(live))
			}
		}
		// Drain: the next pass starts from an empty heap on the retained
		// backing array.
		for h.Len() > 0 {
			popMin()
		}
	}
}

// TestSteadyStateAllocationFree: once the backing array has reached its
// high-water mark, pushes and pops allocate nothing.
func TestSteadyStateAllocationFree(t *testing.T) {
	h := New[int](16, func(a, b int) bool { return a < b })
	if n := testing.AllocsPerRun(100, func() {
		for i := 16; i > 0; i-- {
			h.Push(i)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}); n != 0 {
		t.Errorf("%v allocs/run, want 0", n)
	}
}
