package sched

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// TestKneeMonotoneInTolerance: a looser tolerance never needs more blocks.
func TestKneeMonotoneInTolerance(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
	k1 := KneeBlocks(d, 0.01)
	k5 := KneeBlocks(d, 0.05)
	k20 := KneeBlocks(d, 0.20)
	if !(k20 <= k5 && k5 <= k1) {
		t.Errorf("knees not monotone: 1%%=%d 5%%=%d 20%%=%d", k1, k5, k20)
	}
}

// TestKneeGrowsWithAdderSize: wider adders expose more parallelism and
// need more blocks to capture it — the paper's Table 4 scaling of block
// budgets with input size.
func TestKneeGrowsWithAdderSize(t *testing.T) {
	var prev int
	for i, n := range []int{16, 64, 256} {
		d := circuit.BuildDAG(gen.CarryLookahead(n).Circuit)
		k := KneeBlocks(d, 0.02)
		if i > 0 && k <= prev {
			t.Errorf("knee(%d) = %d not above knee of previous size (%d)", n, k, prev)
		}
		prev = k
	}
}

// TestKneeEmptyCircuit handles the degenerate case.
func TestKneeEmptyCircuit(t *testing.T) {
	if k := KneeBlocks(circuit.BuildDAG(circuit.New(2)), 0.02); k != 0 {
		t.Errorf("empty knee = %d", k)
	}
}

// TestRippleHasNoParallelismToCapture: the ripple-carry adder's knee is a
// single block — the ablation argument for the carry-lookahead choice.
func TestRippleHasNoParallelismToCapture(t *testing.T) {
	d := circuit.BuildDAG(gen.RippleCarry(64).Circuit)
	k := KneeBlocks(d, 0.10)
	if k > 3 {
		t.Errorf("ripple knee = %d blocks; it is a serial chain", k)
	}
	// And limited blocks cost it almost nothing.
	if s := speedup(d, 2); s < 0.9 {
		t.Errorf("2 blocks slow the ripple adder to %.2f", s)
	}
}

// TestPriorityPrefersCriticalPath: with one free block and a choice
// between a critical-path gate and a side gate, the scheduler must pick
// the critical one.
func TestPriorityPrefersCriticalPath(t *testing.T) {
	c := circuit.New(3)
	c.AddH(2) // side gate, no successors
	c.AddT(0) // head of a long chain
	c.AddT(0)
	c.AddT(0)
	c.AddCNOT(0, 1)
	d := circuit.BuildDAG(c)
	r := ListSchedule(d, 1)
	// The chain head (instr 1) must start at slot 0; the side gate waits.
	if r.Start[1] != 0 {
		t.Errorf("critical chain starts at %d, want 0", r.Start[1])
	}
	if r.Start[0] == 0 {
		t.Error("side gate should not preempt the critical path")
	}
	if r.MakespanSlots != 5 {
		t.Errorf("makespan = %d, want 5", r.MakespanSlots)
	}
}
