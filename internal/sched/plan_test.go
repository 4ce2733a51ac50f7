package sched

import (
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// TestPlanMakespanMatchesListSchedule pins the plan's memo to the schedule
// it caches: at every budget — unlimited included, and asked twice so the
// second answer comes from the memo — Makespan equals a fresh list
// schedule, and Depth equals the DAG's critical path.
func TestPlanMakespanMatchesListSchedule(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(32).Circuit)
	p := NewPlan(d)
	if p.DAG() != d {
		t.Fatal("plan should expose the DAG it wraps")
	}
	if p.Depth() != d.Depth() {
		t.Errorf("plan depth %d, DAG depth %d", p.Depth(), d.Depth())
	}
	budgets := []int{0, 1, 2, 4, 9, 15, 36, 1000}
	for pass := 0; pass < 2; pass++ {
		for _, b := range budgets {
			if got, want := p.Makespan(b), ListSchedule(d, b).MakespanSlots; got != want {
				t.Errorf("pass %d, %d blocks: makespan %d, list schedule %d", pass, b, got, want)
			}
		}
	}
}

// TestPlanConcurrentMakespansAgree shares one plan across goroutines
// asking overlapping budgets; every answer must equal the serial one (run
// under -race to check the memo's locking).
func TestPlanConcurrentMakespansAgree(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(16).Circuit)
	want := make(map[int]int)
	for b := 1; b <= 8; b++ {
		want[b] = ListSchedule(d, b).MakespanSlots
	}
	p := NewPlan(d)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				b := (g+i)%8 + 1
				if got := p.Makespan(b); got != want[b] {
					errs <- "concurrent makespan disagrees with the serial schedule"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
