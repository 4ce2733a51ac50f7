package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// validate checks that a schedule respects dependencies and the block
// budget.
func validate(r Result, d *circuit.DAG) error {
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

func chain(n int) *circuit.DAG {
	c := circuit.New(1)
	for i := 0; i < n; i++ {
		c.AddH(0)
	}
	return circuit.BuildDAG(c)
}

func independent(n int) *circuit.DAG {
	c := circuit.New(n)
	for i := 0; i < n; i++ {
		c.AddH(i)
	}
	return circuit.BuildDAG(c)
}

func TestScheduleSerialChain(t *testing.T) {
	d := chain(5)
	r := ListSchedule(d, 3)
	if r.MakespanSlots != 5 {
		t.Errorf("makespan = %d, want 5", r.MakespanSlots)
	}
	if err := validate(r, d); err != nil {
		t.Error(err)
	}
}

func TestScheduleIndependentGatesLimited(t *testing.T) {
	d := independent(10)
	r := ListSchedule(d, 3)
	if r.MakespanSlots != 4 { // ceil(10/3)
		t.Errorf("makespan = %d, want 4", r.MakespanSlots)
	}
	if u := r.Utilization(); u < 0.8 || u > 0.84 {
		t.Errorf("utilization = %g, want 10/12", u)
	}
	if err := validate(r, d); err != nil {
		t.Error(err)
	}
}

func TestUnlimitedEqualsASAP(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(16).Circuit)
	r := ListSchedule(d, 0)
	if r.MakespanSlots != d.Depth() {
		t.Errorf("unlimited makespan %d != depth %d", r.MakespanSlots, d.Depth())
	}
}

func TestSingleBlockIsSerial(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(8).Circuit)
	r := ListSchedule(d, 1)
	if r.MakespanSlots != r.BusySlots {
		t.Errorf("1-block makespan %d != total work %d", r.MakespanSlots, r.BusySlots)
	}
	if u := r.Utilization(); u != 1 {
		t.Errorf("1-block utilization = %g", u)
	}
}

func TestMakespanMonotoneInBlocks(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(32).Circuit)
	prev := -1
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		m := ListSchedule(d, k).MakespanSlots
		if prev >= 0 && m > prev {
			t.Errorf("makespan increased from %d to %d at k=%d", prev, m, k)
		}
		prev = m
	}
}

func TestUtilizationDecreasesWithBlocks(t *testing.T) {
	// Figure 6(a): utilization falls as compute blocks are added.
	d := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
	utils := UtilizationSweep(d, []int{4, 16, 36, 64, 100, 144, 196})
	for i := 1; i < len(utils); i++ {
		if utils[i] > utils[i-1]+1e-9 {
			t.Errorf("utilization rose from %.3f to %.3f", utils[i-1], utils[i])
		}
	}
	if utils[0] < 0.9 {
		t.Errorf("4-block utilization for 64-bit adder = %.3f, expected near 1", utils[0])
	}
}

// speedup returns makespan(unlimited)/makespan(blocks) for a non-empty
// circuit: 1.0 when the block budget captures all available parallelism.
func speedup(d *circuit.DAG, blocks int) float64 {
	return float64(d.Depth()) / float64(ListSchedule(d, blocks).MakespanSlots)
}

// peak returns the maximum number of concurrently executing instructions
// in the schedule.
func peak(r Result, c *circuit.Circuit) int {
	return slices.Max(r.Profile(c))
}

func TestFigure2FewBlocksSuffice(t *testing.T) {
	// The paper's Figure 2 claim: limiting the 64-qubit adder to a small
	// fixed number of compute blocks (15 in the paper) leaves the total
	// runtime essentially unchanged. Our adder carries the explicit
	// uncompute network (~2x the Toffolis of the authors' in-place
	// variant), so its knee sits slightly higher: 15 blocks still reach
	// ~80% of unlimited speed and ~25 blocks reach parity.
	d := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
	if s := speedup(d, 15); s < 0.75 {
		t.Errorf("15 blocks reach only %.2f of unlimited speed", s)
	}
	if s := speedup(d, 25); s < 0.98 {
		t.Errorf("25 blocks reach only %.2f of unlimited speed", s)
	}
	// And with far fewer blocks the adder does slow down.
	if s2 := speedup(d, 2); s2 > 0.5 {
		t.Errorf("2 blocks should clearly hurt, got %.2f", s2)
	}
}

func TestFig2Shape(t *testing.T) {
	// Figure 2: the 64-qubit adder's parallelism profile with unlimited
	// resources and with 15 compute blocks.
	d := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
	unlimited, limited := ListSchedule(d, 0), ListSchedule(d, 15)
	if unlimited.MakespanSlots != d.Depth() {
		t.Error("unlimited profile length should equal depth")
	}
	if limited.MakespanSlots < unlimited.MakespanSlots {
		t.Error("limited schedule cannot beat unlimited")
	}
	// 15 blocks keep the 64-bit adder within ~30% of unlimited runtime.
	if float64(limited.MakespanSlots) > 1.3*float64(unlimited.MakespanSlots) {
		t.Errorf("15 blocks: %d slots vs %d unlimited", limited.MakespanSlots, unlimited.MakespanSlots)
	}
	// Peak unlimited parallelism is tens of gates (Figure 2 peaks ~55).
	if p := peak(unlimited, d.Circuit()); p < 20 {
		t.Errorf("peak parallelism %d, expected tens of gates", p)
	}
	// Limited profile never exceeds the block budget.
	if p := peak(limited, d.Circuit()); p > 15 {
		t.Errorf("limited profile exceeds 15 blocks: %d", p)
	}
}

func TestKneeBlocks(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
	knee := KneeBlocks(d, 0.02)
	if knee < 2 || knee > 40 {
		t.Errorf("knee = %d blocks, expected a small count (paper: ~15)", knee)
	}
	// The knee must actually meet the tolerance.
	m := ListSchedule(d, knee).MakespanSlots
	if float64(m) > 1.021*float64(d.Depth()) {
		t.Errorf("knee schedule %d exceeds tolerance vs depth %d", m, d.Depth())
	}
	// And one block fewer must not.
	if knee > 1 {
		m2 := ListSchedule(d, knee-1).MakespanSlots
		if float64(m2) <= 1.02*float64(d.Depth()) {
			t.Errorf("knee not minimal: %d blocks already suffice", knee-1)
		}
	}
}

func TestProfileAreaEqualsWork(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(16).Circuit)
	r := ListSchedule(d, 5)
	sum := 0
	for _, w := range r.Profile(d.Circuit()) {
		sum += w
	}
	if sum != r.BusySlots {
		t.Errorf("profile area %d != busy slots %d", sum, r.BusySlots)
	}
}

func TestPeakParallelismRespectsBudget(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(32).Circuit)
	for _, k := range []int{1, 3, 7, 15} {
		r := ListSchedule(d, k)
		if p := peak(r, d.Circuit()); p > k {
			t.Errorf("peak %d exceeds budget %d", p, k)
		}
	}
}

func TestEmptyCircuit(t *testing.T) {
	d := circuit.BuildDAG(circuit.New(3))
	r := ListSchedule(d, 4)
	if r.MakespanSlots != 0 || r.BusySlots != 0 {
		t.Errorf("empty schedule: %+v", r)
	}
}

// Property: schedules are valid (dependencies respected, budget respected)
// and makespan lies between critical path and serial work, for random DAGs.
func TestScheduleValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		c := circuit.New(n)
		for i := 0; i < 60; i++ {
			a, b, d := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				c.AddT(a)
			case 1:
				if a != b {
					c.AddCNOT(a, b)
				}
			case 2:
				if a != b && b != d && a != d {
					c.AddToffoli(a, b, d)
				}
			}
		}
		dag := circuit.BuildDAG(c)
		k := 1 + rng.Intn(6)
		r := ListSchedule(dag, k)
		if validate(r, dag) != nil {
			return false
		}
		if r.MakespanSlots < dag.Depth() {
			return false
		}
		if r.MakespanSlots > r.BusySlots {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: work is conserved regardless of block budget.
func TestWorkConservationProperty(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(24).Circuit)
	want := d.TotalSlots()
	for _, k := range []int{1, 2, 5, 11, 50, 0} {
		if got := ListSchedule(d, k).BusySlots; got != want {
			t.Errorf("k=%d: busy slots %d, want %d", k, got, want)
		}
	}
}

func BenchmarkSchedule1024Adder100Blocks(b *testing.B) {
	d := circuit.BuildDAG(gen.CarryLookahead(1024).Circuit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ListSchedule(d, 100)
	}
}

// TestListScheduleAllocationsConstant: a block-limited schedule allocates
// its result and a fixed set of work arrays, never per instruction — the
// ready and running queues hold concrete values, not boxed interfaces.
func TestListScheduleAllocationsConstant(t *testing.T) {
	for _, bits := range []int{16, 64} {
		d := circuit.BuildDAG(gen.CarryLookahead(bits).Circuit)
		if n := testing.AllocsPerRun(20, func() { ListSchedule(d, 15) }); n > 8 {
			t.Errorf("ListSchedule(%d-bit adder, 15 blocks): %v allocs/run, want <= 8", bits, n)
		}
	}
}

// TestValidateRejectsBrokenSchedules: validate catches both ways a
// schedule can be wrong — an instruction starting before its dependency
// finishes, and more instructions in flight than the block budget — and
// the zero-makespan and unreachable-tolerance edges stay well defined.
func TestValidateRejectsBrokenSchedules(t *testing.T) {
	d := chain(3)
	early := ListSchedule(d, 1)
	early.Start[2] = early.Start[1]
	if err := validate(early, d); err == nil {
		t.Error("validate accepted an instruction starting before its dependency finished")
	}
	ind := independent(4)
	crowded := ListSchedule(ind, 0)
	crowded.Blocks = 2
	if err := validate(crowded, ind); err == nil {
		t.Error("validate accepted 4 concurrent instructions on 2 blocks")
	}

	empty := circuit.BuildDAG(circuit.New(1))
	if u := ListSchedule(empty, 3).Utilization(); u != 0 {
		t.Errorf("empty schedule utilization = %v, want 0", u)
	}
	// The target rounds up to whole slots: at depth 1 a tolerance of -0.5
	// still targets one slot, which only one block per instruction meets.
	if k := KneeBlocks(ind, -0.5); k != 4 {
		t.Errorf("KneeBlocks(one-slot target) = %d, want 4", k)
	}
	// A tolerance of -1 targets zero slots, which no budget meets: the
	// doubling search passes the instruction count and caps there.
	if k := KneeBlocks(ind, -1); k != 4 {
		t.Errorf("KneeBlocks(unreachable target) = %d, want 4", k)
	}
}

// TestUtilizationUnlimitedIsZero: a Result carries no circuit, so an
// unlimited-budget schedule has no block count to divide by and reports 0
// rather than a peak-concurrency stand-in.
func TestUtilizationUnlimitedIsZero(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(16).Circuit)
	r := ListSchedule(d, 0)
	if r.MakespanSlots == 0 || r.BusySlots == 0 {
		t.Fatalf("unlimited schedule of a 16-bit adder is empty: %+v", r)
	}
	if u := r.Utilization(); u != 0 {
		t.Errorf("unlimited-budget utilization = %v, want 0", u)
	}
}

// TestKeyBoundPanicsPastTwoTo32: the packed schedule keys hold indices,
// priorities and end slots in 32 bits; a circuit past that bound must
// panic with a message naming it instead of scheduling wrongly.
func TestKeyBoundPanicsPastTwoTo32(t *testing.T) {
	checkKeyBound(1<<20, 1<<32-1) // the largest accepted busy total
	for _, tc := range []struct {
		name string
		n    uint64
		busy uint64
	}{
		{"busy slots", 1 << 20, 1 << 32},
		{"instructions", 1 << 32, 1 << 32},
	} {
		if uint64(int(tc.n)) != tc.n {
			continue // an instruction count past 2^32 is no int on 32-bit hosts
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "2^32") {
					t.Errorf("%s past the key bound: panic %q, want one naming 2^32", tc.name, msg)
				}
			}()
			checkKeyBound(int(tc.n), tc.busy)
		}()
	}
}
