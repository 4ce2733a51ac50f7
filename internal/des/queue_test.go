package des

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// TestEventLanesPopTotalOrder drives the lane queue the way the Runner
// does — a clock that only moves forward to the last popped event, pushes
// at that time plus the lane's fixed duration — with adversarial
// interleavings of pushes and pops, and checks every pop against a sorted
// oracle under eventLess. The lane durations cover a zero transport time,
// a transport time equal to the slot time, and fifteen-slot instructions.
func TestEventLanesPopTotalOrder(t *testing.T) {
	for _, durations := range [][]time.Duration{
		{0, 1, 15},     // TransportTime 0
		{1, 1, 15},     // TransportTime == SlotTime
		{15, 1, 15},    // TransportTime == ToffoliSlots x SlotTime
		{2, 1, 15},     // the des default: twice the slot time
		{3, 15, 1, 15}, // duplicate durations in separate lanes
	} {
		rng := rand.New(rand.NewSource(3))
		const capacity = 8
		caps := make([]int, len(durations))
		for k := range caps {
			caps[k] = capacity
		}
		q := newEventQueue(caps)
		var live []event
		var now time.Duration
		seq := 0
		popMin := func() {
			sort.Slice(live, func(i, j int) bool { return eventLess(live[i], live[j]) })
			want := live[0]
			live = live[1:]
			if got := q.pop(); got != want {
				t.Fatalf("durations %v: pop = %+v, want %+v", durations, got, want)
			}
			now = want.at
		}
		for round := 0; round < 5000; round++ {
			lane := rng.Intn(len(durations))
			if q.len() == 0 || (rng.Intn(3) > 0 && q.lanes[lane].n < capacity) {
				seq++
				e := event{at: now + durations[lane], kind: eventKind(lane % 2), id: rng.Intn(10), seq: seq}
				q.push(lane, e)
				live = append(live, e)
			} else {
				popMin()
			}
			if q.len() != len(live) {
				t.Fatalf("durations %v: len = %d, want %d", durations, q.len(), len(live))
			}
		}
		for q.len() > 0 {
			popMin()
		}
		if len(live) != 0 {
			t.Fatalf("durations %v: %d events never popped", durations, len(live))
		}
	}
}

// TestIntQueueFIFO checks ordering and the in-place compaction path.
func TestIntQueueFIFO(t *testing.T) {
	q := newIntQueue(4)
	var next, want int32
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
		if q.len() != int(next-want) {
			t.Fatalf("len = %d, want %d", q.len(), next-want)
		}
		if q.len() > 0 && q.peek() != want {
			t.Fatalf("peek = %d, want %d", q.peek(), want)
		}
	}
}

// TestRunDeterministic: repeated runs of the same configuration must agree
// exactly — the event order is a total order, never map-iteration or
// scheduling dependent.
func TestRunDeterministic(t *testing.T) {
	ad := gen.CarryLookahead(32)
	c := cfg(9, 3, 50)
	first, err := run(ad.Circuit, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := run(ad.Circuit, c)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("run %d diverged: %+v vs %+v", i, again, first)
		}
	}
}

// TestRunDAGValidates: a prebuilt DAG does not bypass validation; the
// errors fire on the RunDAG entry point itself.
func TestRunDAGValidates(t *testing.T) {
	c := circuit.New(1)
	c.AddH(0)
	d := circuit.BuildDAG(c)
	if _, err := RunDAG(context.Background(), d, Config{Blocks: 0, Channels: 1, ResidentQubits: 4, SlotTime: time.Second}); err == nil {
		t.Error("RunDAG accepted a blockless machine")
	}
}

// toffoliHeavy builds a seeded circuit in which most gates are
// fifteen-slot Toffolis, so instruction completions crowd the Toffoli
// lane and interleave with fetches.
func toffoliHeavy(seed int64, nq, gates int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(nq)
	for c.Len() < gates {
		a, b, t := rng.Intn(nq), rng.Intn(nq), rng.Intn(nq)
		switch {
		case rng.Intn(4) == 0:
			c.AddT(a)
		case a != b && b != t && a != t:
			c.AddToffoli(a, b, t)
		}
	}
	return c
}

// laneCase is a circuit and machine whose event timing stresses the lane
// queue: fetches that complete the instant they start, fetch and
// instruction lanes of equal duration, and Toffoli-dominated circuits.
type laneCase struct {
	name string
	c    *circuit.Circuit
	cfg  Config
}

func laneCases() []laneCase {
	ms := time.Millisecond
	adder := gen.CarryLookahead(16).Circuit
	ctrl := gen.ControlledCarryLookahead(8).Circuit
	toff := toffoliHeavy(11, 48, 300)
	var out []laneCase
	for _, c := range []struct {
		name string
		c    *circuit.Circuit
	}{{"adder16", adder}, {"ctrl-adder8", ctrl}, {"toffoli-heavy", toff}} {
		out = append(out,
			laneCase{c.name + "/transport-0", c.c, Config{Blocks: 4, Channels: 2, ResidentQubits: 40, SlotTime: 100 * ms}},
			laneCase{c.name + "/transport-eq-slot", c.c, Config{Blocks: 9, Channels: 3, ResidentQubits: 60, SlotTime: 100 * ms, TransportTime: 100 * ms}},
			laneCase{c.name + "/transport-eq-toffoli", c.c, Config{Blocks: 4, Channels: 4, ResidentQubits: 30, SlotTime: 10 * ms, TransportTime: 150 * ms}},
			laneCase{c.name + "/tight", c.c, Config{Blocks: 2, Channels: 1, ResidentQubits: 9, SlotTime: 100 * ms, TransportTime: 200 * ms}},
		)
	}
	return out
}

// heapOrderedStats holds the statistics of each lane case as the
// simulator produced them when its pending events lived in one binary
// min-heap under eventLess. The lane queue must pop the same sequence, so
// it must reproduce every figure exactly.
var heapOrderedStats = map[string]Stats{
	"adder16/transport-0":                {Makespan: 52500000000, ComputeBusy: 186600000000, Transports: 354, TransportBusy: 0, StallTime: 0, BlockUtilization: 0.8885714285714286, ChannelUtilization: 0},
	"adder16/transport-eq-slot":          {Makespan: 39100000000, ComputeBusy: 186600000000, Transports: 266, TransportBusy: 26600000000, StallTime: 26900000000, BlockUtilization: 0.5302642796248934, ChannelUtilization: 0.226768968456948},
	"adder16/transport-eq-toffoli":       {Makespan: 16270000000, ComputeBusy: 18660000000, Transports: 399, TransportBusy: 59850000000, StallTime: 42720000000, BlockUtilization: 0.2867240319606638, ChannelUtilization: 0.9196373693915182},
	"adder16/tight":                      {Makespan: 147500000000, ComputeBusy: 186600000000, Transports: 634, TransportBusy: 126800000000, StallTime: 103000000000, BlockUtilization: 0.632542372881356, ChannelUtilization: 0.8596610169491525},
	"ctrl-adder8/transport-0":            {Makespan: 41800000000, ComputeBusy: 108200000000, Transports: 102, TransportBusy: 0, StallTime: 0, BlockUtilization: 0.6471291866028709, ChannelUtilization: 0},
	"ctrl-adder8/transport-eq-slot":      {Makespan: 41300000000, ComputeBusy: 108200000000, Transports: 75, TransportBusy: 7500000000, StallTime: 10700000000, BlockUtilization: 0.2910949690610708, ChannelUtilization: 0.060532687651331726},
	"ctrl-adder8/transport-eq-toffoli":   {Makespan: 8000000000, ComputeBusy: 10820000000, Transports: 132, TransportBusy: 19800000000, StallTime: 13890000000, BlockUtilization: 0.338125, ChannelUtilization: 0.61875},
	"ctrl-adder8/tight":                  {Makespan: 80200000000, ComputeBusy: 108200000000, Transports: 270, TransportBusy: 54000000000, StallTime: 41800000000, BlockUtilization: 0.6745635910224439, ChannelUtilization: 0.6733167082294265},
	"toffoli-heavy/transport-0":          {Makespan: 99000000000, ComputeBusy: 339400000000, Transports: 122, TransportBusy: 0, StallTime: 0, BlockUtilization: 0.857070707070707, ChannelUtilization: 0},
	"toffoli-heavy/transport-eq-slot":    {Makespan: 88600000000, ComputeBusy: 339400000000, Transports: 48, TransportBusy: 4800000000, StallTime: 4900000000, BlockUtilization: 0.4256333082518184, ChannelUtilization: 0.018058690744920995},
	"toffoli-heavy/transport-eq-toffoli": {Makespan: 17150000000, ComputeBusy: 33940000000, Transports: 254, TransportBusy: 38100000000, StallTime: 24100000000, BlockUtilization: 0.4947521865889213, ChannelUtilization: 0.555393586005831},
	"toffoli-heavy/tight":                {Makespan: 194900000000, ComputeBusy: 339400000000, Transports: 652, TransportBusy: 130400000000, StallTime: 46400000000, BlockUtilization: 0.870702924576706, ChannelUtilization: 0.6690610569522832},
}

// TestRunnerMatchesHeapOrderedStats replays the lane cases through a
// Runner — twice, so the second run exercises the rewound lanes — and
// compares every statistic with the heap-ordered figures.
func TestRunnerMatchesHeapOrderedStats(t *testing.T) {
	ctx := context.Background()
	for _, lc := range laneCases() {
		want, ok := heapOrderedStats[lc.name]
		if !ok {
			t.Fatalf("%s: no heap-ordered statistics", lc.name)
		}
		r, err := NewRunner(circuit.BuildDAG(lc.c), lc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", lc.name, err)
		}
		for run := 0; run < 2; run++ {
			got, err := r.Run(ctx)
			if err != nil {
				t.Fatalf("%s run %d: %v", lc.name, run, err)
			}
			if got != want {
				t.Errorf("%s run %d: stats %+v, want %+v", lc.name, run, got, want)
			}
		}
	}
}
