package arch

import (
	"context"
	"strconv"
	"time"

	"repro/internal/cqla"
	"repro/internal/des"
	"repro/internal/obs"
)

// desConfig derives the simulator's machine description from the machine
// model: channels shrink by the code's per-transfer channel requirement,
// and the residency set is the level-2 compute region's data qubits plus
// the model's level-1 cache (cqla.Machine.CacheQubits), unless overridden.
func (m *Machine) desConfig() des.Config {
	cq := m.cq.Config()
	channels := m.simChannels
	if channels == 0 {
		channels = max(cq.ParallelTransfers/cq.Code.ChannelsRequired(), 1)
	}
	resident := m.simResidency
	if resident == 0 {
		resident = cq.ComputeBlocks*cqla.BlockDataQubits + m.cq.CacheQubits()
	}
	return des.Config{
		Blocks:         cq.ComputeBlocks,
		Channels:       channels,
		ResidentQubits: max(resident, 3), // a Toffoli's operands must fit
		SlotTime:       cq.Code.ECTime(2, cq.Params),
		TransportTime:  cq.Code.TransversalGateTime(2, cq.Params),
	}
}

// simulate returns the compiled kernel's simulated stats plus the
// compute-only lower bound (the list-scheduled makespan at the same block
// count, with communication free), which anchors the communication-hidden
// metric. The stats depend only on the plan's DAG and the simulator
// config, so the plan memoizes them per config: the first evaluation runs
// the event loop, as a "sim-run" span (under which the plan's first read
// records its "dag-build"), and every later binding with that config reads
// the memo. A failed or cancelled run caches nothing. Scheduling is
// memoized in the plan too, so a repeated evaluation allocates nothing.
func (cw *CompiledWorkload) simulate(ctx context.Context) (des.Stats, time.Duration, error) {
	stats, err := cw.plan.sims.Do(cw.desCfg, func() (des.Stats, error) {
		runCtx, sp := obs.StartSpan(ctx, "sim-run")
		defer sp.End()
		return des.RunDAG(runCtx, cw.plan.DAG(runCtx), cw.desCfg)
	})
	if err != nil {
		return des.Stats{}, 0, err
	}
	return stats, cw.computeOnly(ctx), nil
}

// appendStatMetrics appends the shared simulation measurements to dst.
func appendStatMetrics(dst []Metric, stats des.Stats, computeOnly time.Duration) []Metric {
	return append(dst,
		Metric{"makespan_s", stats.Makespan.Seconds()},
		Metric{"compute_only_s", computeOnly.Seconds()},
		Metric{"communication_hidden", des.CommunicationHidden(stats, computeOnly)},
		Metric{"stall_s", stats.StallTime.Seconds()},
		Metric{"transports", float64(stats.Transports)},
		Metric{"transport_busy_s", stats.TransportBusy.Seconds()},
		Metric{"block_utilization", stats.BlockUtilization},
		Metric{"channel_utilization", stats.ChannelUtilization},
	)
}

// evaluateDES is the des engine: discrete-event simulation, where the
// actual circuit executes on explicit compute blocks, teleportation
// channels and a bounded residency set (internal/des), measuring what the
// closed-form model assumes — in particular how much memory traffic
// really hides beneath error-correction-dominated computation. With no
// tracer in ctx, a repeated evaluation — memoized simulation, precomputed
// workload constants, recycled metrics — performs zero allocations.
func (cw *CompiledWorkload) evaluateDES(ctx context.Context, out *Result) error {
	ctx, sp := obs.StartSpan(ctx, "des-eval")
	defer sp.End()
	w := cw.w
	if sp != nil {
		sp.Annotate("kind", string(w.Kind))
		sp.Annotate("bits", strconv.Itoa(w.Bits))
	}
	// Every workload kind runs the same compiled kernel once; only the
	// metric decode below differs.
	stats, computeOnly, err := cw.simulate(ctx)
	if err != nil {
		return err
	}
	_, dec := obs.StartSpan(ctx, "decode")
	defer dec.End()
	cm := cw.m.cq
	metrics := out.Metrics[:0]
	switch w.Kind {
	case KindAdder:
		qlaTime := cm.QLAAdderTime(cw.plan.schedule(ctx))
		metrics = append(metrics,
			// Area has no dynamic component; the simulator reuses the
			// closed-form floorplan so its area stays comparable.
			Metric{"area_reduction", cm.AreaReduction(cw.adderQubits, w.Hierarchy)},
			Metric{"sim_speedup", float64(qlaTime) / float64(stats.Makespan)},
		)
		metrics = appendStatMetrics(metrics, stats, computeOnly)
		metrics = append(metrics, Metric{"qla_time_s", qlaTime.Seconds()})
	case KindModExp:
		// The full modular-exponentiation circuit is out of simulation
		// reach at paper sizes; simulate its adder kernel and scale by the
		// sequential adder calls, as the analytic model does.
		seq := float64(cw.adderCalls) / float64(cw.concurrentAdders)
		metrics = append(metrics,
			Metric{"computation_s", seq * stats.Makespan.Seconds()},
			Metric{"adder_makespan_s", stats.Makespan.Seconds()},
			Metric{"adder_compute_only_s", computeOnly.Seconds()},
			Metric{"adder_calls", float64(cw.adderCalls)},
			Metric{"concurrent_adders", float64(cw.concurrentAdders)},
			Metric{"communication_hidden", des.CommunicationHidden(stats, computeOnly)},
			Metric{"stall_s", stats.StallTime.Seconds()},
			Metric{"transports", float64(stats.Transports)},
			Metric{"transport_busy_s", stats.TransportBusy.Seconds()},
			Metric{"block_utilization", stats.BlockUtilization},
			Metric{"channel_utilization", stats.ChannelUtilization},
		)
	default: // KindQFT and custom circuits, by Validate
		metrics = appendStatMetrics(metrics, stats, computeOnly)
	}
	out.Metrics = metrics
	return nil
}
