package arch

import (
	"context"
	"fmt"
)

// Engine evaluates workloads on the machine it was obtained from. The two
// implementations answer the same question two ways: "analytic" computes
// the paper's closed-form area/performance model, "des" measures a
// discrete-event execution of the actual circuit on explicit resources.
type Engine interface {
	// Name returns the engine's registry name.
	Name() string
	// EvaluateCompiledInto evaluates a workload the machine has compiled
	// (Machine.Compile / Machine.CompileWith) into out, reusing out's
	// metric buffer; out's previous contents are fully overwritten. The
	// compiled input must belong to this engine's machine. On the des
	// engine a steady-state call performs no allocations. It honors ctx
	// for long evaluations.
	EvaluateCompiledInto(ctx context.Context, cw *CompiledWorkload, out *Result) error
}

// EvaluateCompiled evaluates cw on eng into a fresh Result — the
// allocating form of Engine.EvaluateCompiledInto, for callers that keep
// the result. A one-shot evaluation compiles first:
//
//	cw, err := m.Compile(w)
//	res, err := arch.EvaluateCompiled(ctx, eng, cw)
func EvaluateCompiled(ctx context.Context, eng Engine, cw *CompiledWorkload) (Result, error) {
	var res Result
	if err := eng.EvaluateCompiledInto(ctx, cw, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// errForeignCompile rejects a compiled workload bound to another machine:
// its derived simulator config describes that machine, so evaluating it
// here would silently mix configurations.
var errForeignCompile = fmt.Errorf("arch: compiled workload belongs to a different machine")

// Engine registry names.
const (
	EngineAnalytic = "analytic"
	EngineDES      = "des"
)

// EngineNames lists the available engines, default first.
func EngineNames() []string { return []string{EngineAnalytic, EngineDES} }

// NormalizeEngine canonicalizes an engine name: empty selects the
// analytic default and "sim" aliases the discrete-event engine. Unknown
// names are errors.
func NormalizeEngine(name string) (string, error) {
	switch name {
	case "", EngineAnalytic:
		return EngineAnalytic, nil
	case EngineDES, "sim":
		return EngineDES, nil
	}
	return "", fmt.Errorf("arch: unknown engine %q (have %v)", name, EngineNames())
}

// Engine returns the named evaluation engine bound to this machine.
func (m *Machine) Engine(name string) (Engine, error) {
	canonical, err := NormalizeEngine(name)
	if err != nil {
		return nil, err
	}
	switch canonical {
	case EngineAnalytic:
		return analyticEngine{m: m}, nil
	default:
		return simEngine{m: m}, nil
	}
}

// result assembles the envelope for one evaluation of this machine.
func (m *Machine) result(engine string, w Workload, metrics []Metric) Result {
	return Result{
		SchemaVersion: SchemaVersion,
		Engine:        engine,
		Workload:      w,
		Config:        m.cfg,
		Metrics:       metrics,
	}
}
