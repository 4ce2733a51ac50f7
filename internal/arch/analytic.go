package arch

import (
	"context"
	"strconv"
	"time"

	"repro/internal/obs"
)

// evaluateAnalytic is the analytic engine: the paper's closed-form model
// — list-scheduled makespans times error-correction slot costs for time,
// the tile model for area, the QLA of internal/qla as the normalization
// baseline. It is exact, fast, and blind to dynamic effects; the des
// engine exists to check it. The paper's kinds (adder, modexp, qft) use
// their closed forms, pricing the adder kernel from the compiled plan's
// shared schedule memo; every other kind, including custom circuits, is
// costed directly from the plan's schedule. The QFT's closed form reads no
// plan, so its kernel is never built here.
func (cw *CompiledWorkload) evaluateAnalytic(ctx context.Context, out *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// With a tracer in ctx the closed-form evaluation is one span; without
	// one this line is a no-op.
	ctx, sp := obs.StartSpan(ctx, "analytic-eval")
	defer sp.End()
	w := cw.w
	if sp != nil {
		sp.Annotate("kind", string(w.Kind))
		sp.Annotate("bits", strconv.Itoa(w.Bits))
	}
	cm := cw.m.cq
	metrics := out.Metrics[:0]
	switch w.Kind {
	case KindAdder:
		kernel := cw.plan.schedule(ctx)
		// The addition is the kernel of an n-bit modular exponentiation,
		// whose logical-qubit footprint sets the memory size.
		q := cw.adderQubits
		area := cm.AreaReduction(q, w.Hierarchy)
		l2 := cm.SpeedupL2(kernel)
		l2Time := Metric{"l2_time_s", cm.AdderTimeL2(kernel).Seconds()}
		qlaTime := Metric{"qla_time_s", cm.QLAAdderTime(kernel).Seconds()}
		if w.Hierarchy {
			metrics = append(metrics,
				Metric{"area_reduction", area},
				Metric{"l2_speedup", l2},
				Metric{"l1_speedup", cm.SpeedupL1(kernel)},
				Metric{"adder_speedup", cm.AdderSpeedup(kernel)},
				Metric{"gain_product", cm.GainProduct(kernel, q, true)},
				Metric{"stall_s", cm.TransferStall().Seconds()},
				Metric{"l1_time_s", cm.AdderTimeL1(kernel).Seconds()},
				l2Time, qlaTime,
			)
		} else {
			metrics = append(metrics,
				Metric{"area_reduction", area},
				Metric{"l2_speedup", l2},
				Metric{"gain_product", area * l2},
				l2Time, qlaTime,
			)
		}
	case KindModExp:
		t := cm.ModExpTimes(w.Bits, cw.plan.schedule(ctx))
		metrics = append(metrics,
			Metric{"computation_s", t.Computation.Seconds()},
			Metric{"communication_s", t.Communication.Seconds()},
			Metric{"total_s", (t.Computation + t.Communication).Seconds()},
			Metric{"area_reduction", cm.AreaReduction(cw.adderQubits, w.Hierarchy)},
		)
	case KindQFT:
		t := cm.QFTTimes(w.Bits)
		metrics = append(metrics,
			Metric{"computation_s", t.Computation.Seconds()},
			Metric{"communication_s", t.Communication.Seconds()},
			Metric{"total_s", (t.Computation + t.Communication).Seconds()},
		)
	default:
		// Registry kernels and custom circuits: the list-scheduled
		// makespan at the machine's block budget, priced at the level-2
		// error-correction slot time, bracketed by the serial and
		// critical-path bounds.
		slot := cm.SlotTime(2)
		kernel := cw.plan.schedule(ctx)
		d := kernel.DAG()
		makespan := kernel.Makespan(cm.Config().ComputeBlocks)
		serial := d.TotalSlots()
		speedup := 1.0
		if makespan > 0 {
			speedup = float64(serial) / float64(makespan)
		}
		metrics = append(metrics,
			Metric{"computation_s", (time.Duration(makespan) * slot).Seconds()},
			Metric{"critical_path_s", (time.Duration(d.Depth()) * slot).Seconds()},
			Metric{"serial_s", (time.Duration(serial) * slot).Seconds()},
			Metric{"parallel_speedup", speedup},
			Metric{"makespan_slots", float64(makespan)},
		)
	}
	out.Metrics = metrics
	return nil
}
