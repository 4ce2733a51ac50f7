package des

import (
	"context"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/ecc"
	"repro/internal/gen"
	"repro/internal/phys"
	"repro/internal/sched"
)

// run simulates c on a freshly built DAG.
func run(c *circuit.Circuit, cfg Config) (Stats, error) {
	return RunDAG(context.Background(), circuit.BuildDAG(c), cfg)
}

func cfg(blocks, channels, resident int) Config {
	return Config{
		Blocks:         blocks,
		Channels:       channels,
		ResidentQubits: resident,
		SlotTime:       100 * time.Millisecond,
		TransportTime:  200 * time.Millisecond,
	}
}

func TestSerialChain(t *testing.T) {
	c := circuit.New(1)
	for i := 0; i < 5; i++ {
		c.AddH(0)
	}
	s, err := run(c, cfg(2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	// One fetch (200ms) then five serial gates (500ms).
	want := 200*time.Millisecond + 5*100*time.Millisecond
	if s.Makespan != want {
		t.Errorf("makespan = %v, want %v", s.Makespan, want)
	}
	if s.Transports != 1 {
		t.Errorf("transports = %d, want 1", s.Transports)
	}
}

func TestComputeBusyConserved(t *testing.T) {
	ad := gen.CarryLookahead(8)
	s, err := run(ad.Circuit, cfg(4, 4, 100))
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(ad.Circuit.Stats().TotalSlots) * (100 * time.Millisecond)
	if s.ComputeBusy != want {
		t.Errorf("compute busy = %v, want %v", s.ComputeBusy, want)
	}
	if s.BlockUtilization <= 0 || s.BlockUtilization > 1 {
		t.Errorf("block utilization = %g", s.BlockUtilization)
	}
	if s.ChannelUtilization <= 0 || s.ChannelUtilization > 1 {
		t.Errorf("channel utilization = %g", s.ChannelUtilization)
	}
}

func TestEveryQubitFetchedAtLeastOnce(t *testing.T) {
	ad := gen.CarryLookahead(4)
	s, err := run(ad.Circuit, cfg(4, 4, 1000))
	if err != nil {
		t.Fatal(err)
	}
	// Capacity is ample, so each touched qubit is fetched exactly once.
	touched := map[int]bool{}
	for _, in := range ad.Circuit.Instrs() {
		for _, q := range in.Operands() {
			touched[int(q)] = true
		}
	}
	if s.Transports != len(touched) {
		t.Errorf("transports = %d, want %d (one per touched qubit)", s.Transports, len(touched))
	}
}

func TestTightResidencyForcesRefetches(t *testing.T) {
	ad := gen.CarryLookahead(8)
	ample, err := run(ad.Circuit, cfg(2, 2, 1000))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := run(ad.Circuit, cfg(2, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Transports <= ample.Transports {
		t.Errorf("tight residency should refetch: %d vs %d", tight.Transports, ample.Transports)
	}
	if tight.Makespan < ample.Makespan {
		t.Error("tight residency cannot be faster")
	}
}

func TestMoreChannelsNeverSlower(t *testing.T) {
	ad := gen.CarryLookahead(16)
	var prev time.Duration
	for i, ch := range []int{1, 2, 4, 8} {
		s, err := run(ad.Circuit, cfg(4, ch, 60))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && s.Makespan > prev {
			t.Errorf("channels=%d slower than fewer channels: %v > %v", ch, s.Makespan, prev)
		}
		prev = s.Makespan
	}
}

func TestNoMemoryWall(t *testing.T) {
	// The paper's claim: with EC-dominated slot times, communication hides
	// under computation. Run the 32-bit adder on a Bacon-Shor level-2
	// machine (slot 0.1 s, transport 0.2 s) with the paper's 2-channel
	// perimeter scaled to the block count, and check that most transport
	// time is hidden.
	p := phys.Projected()
	bs := ecc.BaconShor()
	ad := gen.CarryLookahead(32)
	machineCfg := Config{
		Blocks:         9,
		Channels:       12, // 2 per block edge on the superblock perimeter
		ResidentQubits: 500,
		SlotTime:       bs.ECTime(2, p),
		TransportTime:  bs.TransversalGateTime(2, p),
	}
	s, err := run(ad.Circuit, machineCfg)
	if err != nil {
		t.Fatal(err)
	}
	computeOnly := time.Duration(sched.ListSchedule(circuit.BuildDAG(ad.Circuit), 9).MakespanSlots) * machineCfg.SlotTime
	hidden := CommunicationHidden(s, computeOnly)
	if hidden < 0.8 {
		t.Errorf("only %.0f%% of communication hidden; the paper overlaps nearly all of it", 100*hidden)
	}
	// Total slowdown from communication stays small.
	if float64(s.Makespan) > 1.25*float64(computeOnly) {
		t.Errorf("communication inflated makespan %.2fx over compute-only", float64(s.Makespan)/float64(computeOnly))
	}
}

func TestStallTimeVisibleWhenStarved(t *testing.T) {
	// One channel and huge transport cost: instructions stall on operands.
	ad := gen.CarryLookahead(8)
	c := Config{
		Blocks:         4,
		Channels:       1,
		ResidentQubits: 100,
		SlotTime:       time.Millisecond,
		TransportTime:  time.Second,
	}
	s, err := run(ad.Circuit, c)
	if err != nil {
		t.Fatal(err)
	}
	if s.StallTime == 0 {
		t.Error("starved machine should record stall time")
	}
	if s.ChannelUtilization < 0.9 {
		t.Errorf("the single channel should be saturated, got %.2f", s.ChannelUtilization)
	}
}

func TestRunValidation(t *testing.T) {
	c := circuit.New(1)
	c.AddH(0)
	bad := []Config{
		{Blocks: 0, Channels: 1, ResidentQubits: 4, SlotTime: time.Second},
		{Blocks: 1, Channels: 0, ResidentQubits: 4, SlotTime: time.Second},
		{Blocks: 1, Channels: 1, ResidentQubits: 2, SlotTime: time.Second},
		{Blocks: 1, Channels: 1, ResidentQubits: 4, SlotTime: 0},
	}
	for i, b := range bad {
		if _, err := run(c, b); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestEmptyCircuit(t *testing.T) {
	s, err := run(circuit.New(3), cfg(2, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 0 || s.Transports != 0 {
		t.Errorf("empty run: %+v", s)
	}
}

func TestDESMatchesSchedulerWhenCommunicationFree(t *testing.T) {
	// With zero transport time the DES must reproduce the list scheduler's
	// makespan on a serial-friendly workload.
	ad := gen.CarryLookahead(16)
	c := Config{
		Blocks:         5,
		Channels:       4,
		ResidentQubits: 10000,
		SlotTime:       time.Second,
		TransportTime:  0,
	}
	s, err := run(ad.Circuit, c)
	if err != nil {
		t.Fatal(err)
	}
	ms := sched.ListSchedule(circuit.BuildDAG(ad.Circuit), 5).MakespanSlots
	got := int(s.Makespan / time.Second)
	// Both are greedy list schedules; allow small tie-breaking divergence.
	if diff := got - ms; diff < -ms/10 || diff > ms/10 {
		t.Errorf("DES makespan %d slots vs scheduler %d", got, ms)
	}
}

// TestUtilizationLargeMakespan: the old int arithmetic
// (busy / (units × int(span))) truncated the span to 32 bits on 32-bit
// platforms and overflows int64 once units × span passes ~2⁶³ ns. The
// chosen values put units × span at ~1.7e19 ns — past int64 — with every
// operand an exact power of two, so the float64 result must be exactly
// one half.
func TestUtilizationLargeMakespan(t *testing.T) {
	span := 4096 * time.Second // 2¹² s
	units := 1 << 22
	busy := time.Duration(1<<21) * 4096 * time.Second // units/2 × span
	if got := utilization(busy, units, span); got != 0.5 {
		t.Errorf("utilization(%v, %d, %v) = %v, want exactly 0.5", busy, units, span, got)
	}
}

func TestUtilizationSmallAndDegenerate(t *testing.T) {
	if got := utilization(3*time.Second, 2, 3*time.Second); got != 0.5 {
		t.Errorf("utilization(3s, 2, 3s) = %v, want 0.5", got)
	}
	if got := utilization(time.Second, 0, time.Second); got != 0 {
		t.Errorf("utilization with zero units = %v, want 0", got)
	}
	if got := utilization(time.Second, 4, 0); got != 0 {
		t.Errorf("utilization with zero span = %v, want 0", got)
	}
}
