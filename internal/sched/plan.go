package sched

import (
	"repro/internal/circuit"
	"repro/internal/memo"
)

// Plan is a compiled scheduling kernel: a dependency DAG plus a memo of its
// list-scheduled makespans per block budget. Building one costs the DAG
// construction once; every later makespan query at a seen budget is a map
// hit. A plan is immutable apart from its lock-guarded memo, so one plan is
// safe to share across machines and goroutines — the analytic model and
// both evaluation engines read the same plan.
type Plan struct {
	dag       *circuit.DAG
	makespans memo.Map[int, int]
}

// NewPlan wraps a dependency DAG as a plan.
func NewPlan(d *circuit.DAG) *Plan { return &Plan{dag: d} }

// DAG returns the plan's dependency graph. It is shared storage; treat it
// as read-only.
func (p *Plan) DAG() *circuit.DAG { return p.dag }

// Depth returns the critical-path length in slots: the makespan with
// unlimited blocks.
func (p *Plan) Depth() int { return p.dag.Depth() }

// Makespan returns ListSchedule(p.DAG(), blocks).MakespanSlots, memoized
// per block budget. It runs the same dispatch loop without recording start
// slots, and answers unlimited budgets from the DAG's critical path.
func (p *Plan) Makespan(blocks int) int {
	return p.makespans.Get(blocks, func() int {
		if blocks <= 0 || p.dag.Circuit().Len() == 0 {
			return p.dag.Depth()
		}
		makespan, _ := listSchedule(p.dag, blocks, nil)
		return makespan
	})
}
