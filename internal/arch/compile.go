package arch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/des"
	"repro/internal/gen"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/sched"
)

// WorkloadPlan is the machine-independent compiled form of a workload: the
// kernel's schedule plan — its dependency DAG plus a memo of list-scheduled
// makespans per block budget. Adder and modexp workloads share the
// carry-lookahead adder kernel (the paper evaluates modular exponentiation
// as repeated additions), so their plans are interchangeable at equal
// width; every other kind — the registry kernels and custom circuits from
// circuit.Parse — compiles to its own DAG.
//
// A registry kernel's schedule plan is built on first read, exactly once:
// an engine that never reads it (the analytic engine prices the QFT in
// closed form) never generates the circuit. A custom circuit's plan is
// built when PlanCircuit constructs it. The plan also memoizes the des
// statistics of its kernel per simulator config: they depend on nothing
// else, so every binding to a machine with that config shares one
// simulation. A plan is immutable once built apart from its two memos,
// which are lock-guarded; it is safe for concurrent use and intended to be
// shared — the explore runner plans each (kernel, bits) pair once per plan
// cache (per sweep in the CLI, per server in cqla serve) and binds the one
// plan to every machine that evaluates it, on either engine.
type WorkloadPlan struct {
	kind  Kind
	name  string // custom circuit name; "" for built-in kinds
	bits  int
	build func(bits int) *circuit.Circuit // kernel generator; nil for custom circuits

	mu     sync.Mutex                      // serializes the build
	kernel atomic.Pointer[sched.Plan]      // nil until built; read it through schedule
	sims   memo.Map[des.Config, des.Stats] // simulated statistics per simulator config
}

// PlanWorkload describes the kernel plan for w without building it: the
// circuit generation and DAG construction run when an engine first reads
// the plan. The result is machine-independent: bind it to a machine with
// Machine.CompileWith (or let Machine.Compile do both steps). Custom
// workloads carry their own circuit and are compiled with PlanCircuit
// instead.
func PlanWorkload(w Workload) (*WorkloadPlan, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if w.Kind == KindCustom {
		return nil, fmt.Errorf("arch: custom workload %q has no registered kernel; compile its circuit with PlanCircuit", w.Name)
	}
	build, ok := kernelCircuits[w.Kind]
	if !ok {
		return nil, fmt.Errorf("arch: no kernel builder for workload kind %q", w.Kind)
	}
	return &WorkloadPlan{
		kind:  w.Kind,
		bits:  w.Bits,
		build: build,
	}, nil
}

// PlanCircuit compiles a user-supplied circuit (typically from
// circuit.Parse) into a workload plan under the given name, building its
// DAG now. The resulting plan behaves exactly like a registry kernel's:
// bind it to machines with Machine.CompileWith and evaluate on either
// engine.
func PlanCircuit(name string, c *circuit.Circuit) (*WorkloadPlan, error) {
	if name == "" {
		return nil, fmt.Errorf("arch: custom circuit needs a name")
	}
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("arch: custom circuit %q is empty", name)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("arch: custom circuit %q: %w", name, err)
	}
	p := &WorkloadPlan{kind: KindCustom, name: name, bits: c.NumQubits()}
	p.kernel.Store(sched.NewPlan(circuit.BuildDAG(c)))
	return p, nil
}

// schedule returns the kernel's schedule plan, generating the circuit and
// building its DAG on the first call. Concurrent first readers wait for
// the one build; a build that panics stores nothing, so the next reader
// builds afresh. With a tracer in the building reader's ctx the build is
// recorded as a "dag-build" span.
func (p *WorkloadPlan) schedule(ctx context.Context) *sched.Plan {
	if k := p.kernel.Load(); k != nil {
		return k
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := p.kernel.Load(); k != nil {
		return k
	}
	_, sp := obs.StartSpan(ctx, "dag-build")
	defer sp.End()
	k := sched.NewPlan(circuit.BuildDAG(p.build(p.bits)))
	p.kernel.Store(k)
	return k
}

// Instructions returns the instruction count of the plan's kernel once it
// is built, and 0 before that; it never builds the plan. A kernel plan
// cache weighs what it retains by this count.
func (p *WorkloadPlan) Instructions() int {
	if k := p.kernel.Load(); k != nil {
		return k.DAG().Circuit().Len()
	}
	return 0
}

// Bits returns the problem width the plan was compiled for.
func (p *WorkloadPlan) Bits() int { return p.bits }

// Workload returns the canonical workload description the plan compiles:
// for custom plans this is the KindCustom workload carrying the circuit's
// name and register width.
func (p *WorkloadPlan) Workload() Workload {
	return Workload{Kind: p.kind, Bits: p.bits, Name: p.name}
}

// Kernel returns the plan's kernel identity — the cache key under which
// plans are shareable; it matches Workload.Kernel for every workload the
// plan is compatible with.
func (p *WorkloadPlan) Kernel() string { return p.Workload().Kernel() }

// DAG returns the kernel dependency graph (shared storage; treat it as
// read-only), building the plan if this is its first read; ctx carries the
// tracer the build is recorded under.
func (p *WorkloadPlan) DAG(ctx context.Context) *circuit.DAG { return p.schedule(ctx).DAG() }

// compatible reports whether the plan can evaluate w: same width, same
// kernel.
func (p *WorkloadPlan) compatible(w Workload) bool {
	return p.bits == w.Bits && p.Kernel() == w.Kernel()
}

// CompiledWorkload binds a workload plan to one machine: the validated
// workload, the shared kernel plan, and the derived discrete-event machine
// description. Compiling once and evaluating many times is the intended
// hot-loop shape — CompiledWorkload.Evaluate skips every per-evaluation
// setup cost (circuit generation and DAG construction happen once, on the
// plan's first read; scheduling and simulation are memoized in the plan)
// and reuses the caller's result buffers, so a repeated des evaluation
// performs no allocations at all.
type CompiledWorkload struct {
	m      *Machine
	w      Workload
	plan   *WorkloadPlan
	desCfg des.Config

	// Modular-exponentiation constants for the adder/modexp metric decode,
	// precomputed so the evaluation hot loop never rebuilds gen.ModExp.
	adderQubits      int
	adderCalls       int
	concurrentAdders int
}

// Compile validates w, compiles its kernel plan and binds it to the
// machine. For repeated evaluations of one workload family across many
// machines, compile the plan once with PlanWorkload and bind it to each
// machine with CompileWith instead. Custom workloads carry their own
// circuit: plan it with PlanCircuit and bind it with CompileWith.
func (m *Machine) Compile(w Workload) (*CompiledWorkload, error) {
	plan, err := PlanWorkload(w)
	if err != nil {
		return nil, err
	}
	return m.CompileWith(w, plan)
}

// CompileWith binds a precompiled plan to this machine. Both engines then
// evaluate from the plan's one shared DAG and schedule memo.
func (m *Machine) CompileWith(w Workload, plan *WorkloadPlan) (*CompiledWorkload, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if plan == nil || !plan.compatible(w) {
		return nil, fmt.Errorf("arch: plan does not match workload %s/%d bits", w.Kind, w.Bits)
	}
	cw := &CompiledWorkload{m: m, w: w, plan: plan, desCfg: m.desConfig()}
	// Validating now surfaces an invalid derived simulator config at
	// compile time instead of mid-evaluation.
	if err := cw.desCfg.Validate(); err != nil {
		return nil, fmt.Errorf("arch: workload %s/%d bits: %w", w.Kind, w.Bits, err)
	}
	if w.Kind == KindAdder || w.Kind == KindModExp {
		me := gen.NewModExp(w.Bits)
		cw.adderQubits = me.LogicalQubits()
		cw.adderCalls = me.AdderCalls()
		cw.concurrentAdders = me.ConcurrentAdders()
	}
	return cw, nil
}

// computeOnly returns the compute-only lower bound of the compiled kernel:
// the list-scheduled makespan at the machine's block count with
// communication free. It anchors the communication-hidden metric.
func (cw *CompiledWorkload) computeOnly(ctx context.Context) time.Duration {
	return time.Duration(cw.plan.schedule(ctx).Makespan(cw.desCfg.Blocks)) * cw.desCfg.SlotTime
}
