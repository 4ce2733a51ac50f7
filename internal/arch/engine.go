package arch

import (
	"context"
	"errors"
	"fmt"
)

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

// Evaluate evaluates the compiled workload on the named engine into out,
// reusing out's metric buffer; out's previous contents are fully
// overwritten. The engine name is any NormalizeEngine accepts: "analytic"
// computes the paper's closed-form area/performance model, "des" measures
// a discrete-event execution of the actual circuit on explicit resources.
// The workload is evaluated on the machine that compiled it. With no
// tracer in ctx, a repeated des evaluation performs no allocations. It
// honors ctx for long evaluations.
func (cw *CompiledWorkload) Evaluate(ctx context.Context, engine string, out *Result) error {
	canonical, err := NormalizeEngine(engine)
	if err != nil {
		return err
	}
	if cw == nil {
		return errors.New("arch: evaluating a nil compiled workload")
	}
	if canonical == EngineDES {
		return cw.evaluateDES(ctx, out)
	}
	return cw.evaluateAnalytic(ctx, out)
}
