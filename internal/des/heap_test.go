package des

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/minheap"
)

// TestMinHeapPopsTotalOrder drives the event heap with adversarial
// interleaved pushes and pops and checks that it always yields the
// minimum under the simulator's (at, seq) total order.
func TestMinHeapPopsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := minheap.New(4, eventLess)
	var live []event
	seq := 0
	popMin := func() {
		sort.Slice(live, func(i, j int) bool { return eventLess(live[i], live[j]) })
		want := live[0]
		live = live[1:]
		if got := h.Pop(); got != want {
			t.Fatalf("pop = %+v, want %+v", got, want)
		}
	}
	for round := 0; round < 2000; round++ {
		if h.Len() == 0 || rng.Intn(3) > 0 {
			seq++
			// Coarse timestamps force plenty of equal-time ties so the seq
			// tiebreaker is exercised, not just the primary key.
			e := event{at: time.Duration(rng.Intn(50)), kind: eventKind(rng.Intn(2)), id: rng.Intn(10), seq: seq}
			h.Push(e)
			live = append(live, e)
		} else {
			popMin()
		}
	}
	for h.Len() > 0 {
		popMin()
	}
	if len(live) != 0 {
		t.Fatalf("%d events never popped", len(live))
	}
}

// TestIntQueueFIFO checks ordering and the in-place compaction path.
func TestIntQueueFIFO(t *testing.T) {
	q := newIntQueue(4)
	next, want := 0, 0
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 5000; round++ {
		if q.len() == 0 || rng.Intn(3) > 0 {
			q.push(next)
			next++
		} else {
			if got := q.pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
		if q.len() != next-want {
			t.Fatalf("len = %d, want %d", q.len(), next-want)
		}
		if q.len() > 0 && q.peek() != want {
			t.Fatalf("peek = %d, want %d", q.peek(), want)
		}
	}
}

// TestRunDAGMatchesRun: the prebuilt-DAG entry point must be the same
// simulation, not a variant.
func TestRunDAGMatchesRun(t *testing.T) {
	ad := gen.CarryLookahead(16)
	c := cfg(4, 2, 60)
	viaRun, err := Run(ad.Circuit, c)
	if err != nil {
		t.Fatal(err)
	}
	viaDAG, err := RunDAG(context.Background(), circuit.BuildDAG(ad.Circuit), c)
	if err != nil {
		t.Fatal(err)
	}
	if viaRun != viaDAG {
		t.Errorf("RunDAG stats %+v differ from Run stats %+v", viaDAG, viaRun)
	}
}

// TestRunDeterministic: repeated runs of the same configuration must agree
// exactly — the event order is a total order, never map-iteration or
// scheduling dependent.
func TestRunDeterministic(t *testing.T) {
	ad := gen.CarryLookahead(32)
	c := cfg(9, 3, 50)
	first, err := Run(ad.Circuit, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Run(ad.Circuit, c)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("run %d diverged: %+v vs %+v", i, again, first)
		}
	}
}

// TestRunDAGValidates: the validation errors must fire on the RunDAG entry
// point too, not only on Run.
func TestRunDAGValidates(t *testing.T) {
	c := circuit.New(1)
	c.AddH(0)
	d := circuit.BuildDAG(c)
	if _, err := RunDAG(context.Background(), d, Config{Blocks: 0, Channels: 1, ResidentQubits: 4, SlotTime: time.Second}); err == nil {
		t.Error("RunDAG accepted a blockless machine")
	}
}
