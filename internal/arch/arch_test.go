package arch_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/gen"
	"repro/internal/phys"
)

// evaluate is the one-shot path: compile w on m, then evaluate it on the
// named engine.
func evaluate(ctx context.Context, m *arch.Machine, engine string, w arch.Workload) (arch.Result, error) {
	cw, err := m.Compile(w)
	if err != nil {
		return arch.Result{}, err
	}
	return evaluateCompiled(ctx, cw, engine)
}

// evaluateCompiled evaluates cw on the named engine into a fresh Result.
func evaluateCompiled(ctx context.Context, cw *arch.CompiledWorkload, engine string) (arch.Result, error) {
	var res arch.Result
	err := cw.Evaluate(ctx, engine, &res)
	return res, err
}

func TestNewDefaults(t *testing.T) {
	m, err := arch.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Analytic().Config()
	if cfg.Code.Short != ecc.Steane().Short || cfg.Params.Name != "projected" {
		t.Errorf("default code/phys = %q/%q", cfg.Code.Short, cfg.Params.Name)
	}
	if cfg.ComputeBlocks != 36 || cfg.ParallelTransfers != 10 {
		t.Errorf("default blocks/transfers = %d/%d", cfg.ComputeBlocks, cfg.ParallelTransfers)
	}
	if cfg.CacheFactor != cqla.CacheFactor || cfg.TransferOverlap != cqla.TransferOverlap {
		t.Errorf("defaults should be the paper's: %+v", cfg)
	}
}

func TestNewErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []arch.Option
		frag string
	}{
		{"unknown code", []arch.Option{arch.WithCodeName("surface")}, "unknown code"},
		{"zero blocks", []arch.Option{arch.WithBlocks(0)}, "compute blocks"},
		{"negative transfers", []arch.Option{arch.WithTransfers(-1)}, "parallel transfers"},
		{"zero cache", []arch.Option{arch.WithCacheFactor(0)}, "cache factor"},
		{"overlap above one", []arch.Option{arch.WithTransferOverlap(1.5)}, "overlap"},
		{"negative sim channels", []arch.Option{arch.WithSimChannels(-2)}, "sim channels"},
		{"negative sim residency", []arch.Option{arch.WithSimResidency(-2)}, "resident"},
	}
	for _, c := range cases {
		if _, err := arch.New(c.opts...); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.frag)
		}
	}
}

// TestZeroOverlapIsLiteral: the arch API has no zero-value sentinel —
// WithTransferOverlap(0) models no overlap at all, which must stall the
// level-1 adder ten times longer than the paper's 0.9 default.
func TestZeroOverlapIsLiteral(t *testing.T) {
	noOv, err := arch.New(arch.WithTransferOverlap(0))
	if err != nil {
		t.Fatal(err)
	}
	def, err := arch.New()
	if err != nil {
		t.Fatal(err)
	}
	r := float64(noOv.Analytic().TransferStall()) / float64(def.Analytic().TransferStall())
	if r < 9.99 || r > 10.01 {
		t.Errorf("zero-overlap stall should be 10x the 0.9-overlap stall, got %.3fx", r)
	}
}

// TestEngineLookup pins the engine names: NormalizeEngine's aliases, and
// Evaluate rejecting any name NormalizeEngine does not accept.
func TestEngineLookup(t *testing.T) {
	for name, want := range map[string]string{
		"":         arch.EngineAnalytic,
		"analytic": arch.EngineAnalytic,
		"des":      arch.EngineDES,
		"sim":      arch.EngineDES,
	} {
		got, err := arch.NormalizeEngine(name)
		if err != nil || got != want {
			t.Errorf("NormalizeEngine(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := arch.NormalizeEngine("montecarlo"); err == nil {
		t.Error("NormalizeEngine accepted an unknown engine")
	}
	m, err := arch.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evaluate(context.Background(), m, "montecarlo", arch.NewAdder(8, false)); err == nil || !strings.Contains(err.Error(), `unknown engine "montecarlo"`) {
		t.Errorf("Evaluate on an unknown engine: err = %v", err)
	}
}

// TestAnalyticMatchesClosedForm demands bitwise agreement between the
// engine's metrics and the direct cqla computation it wraps — the API is
// a re-plumbing, not an approximation.
func TestAnalyticMatchesClosedForm(t *testing.T) {
	p := phys.Projected()
	m, err := arch.New(
		arch.WithCodeName("bacon-shor"),
		arch.WithParams(p),
		arch.WithBlocks(36),
		arch.WithTransfers(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluate(context.Background(), m, arch.EngineAnalytic, arch.NewAdder(256, true))
	if err != nil {
		t.Fatal(err)
	}
	cm, err := cqla.NewMachine(cqla.Config{
		Code:              ecc.BaconShor(),
		Params:            p,
		ComputeBlocks:     36,
		ParallelTransfers: 10,
		CacheFactor:       cqla.CacheFactor,
		TransferOverlap:   cqla.TransferOverlap,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := gen.NewModExp(256).LogicalQubits()
	adder := cqla.AdderKernel(256)
	for name, want := range map[string]float64{
		"area_reduction": cm.AreaReduction(q, true),
		"l1_speedup":     cm.SpeedupL1(adder),
		"l2_speedup":     cm.SpeedupL2(adder),
		"adder_speedup":  cm.AdderSpeedup(adder),
		"gain_product":   cm.GainProduct(adder, q, true),
	} {
		if got := res.MustMetric(name); got != want {
			t.Errorf("%s = %v, want exactly %v", name, got, want)
		}
	}
}

func TestSimEngineAdder(t *testing.T) {
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluate(context.Background(), m, arch.EngineDES, arch.NewAdder(16, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) == 0 {
		t.Fatalf("unpopulated des result: %+v", res)
	}
	mk := res.MustMetric("makespan_s")
	if mk <= 0 {
		t.Errorf("makespan_s = %g, want > 0", mk)
	}
	if res.MustMetric("transports") <= 0 {
		t.Error("simulation should fetch operands from memory")
	}
	// The simulator can never beat the compute-only lower bound.
	if co := res.MustMetric("compute_only_s"); mk < co {
		t.Errorf("makespan %.3fs below compute-only bound %.3fs", mk, co)
	}
	hidden := res.MustMetric("communication_hidden")
	if hidden < 0 || hidden > 1 {
		t.Errorf("communication_hidden = %g outside [0,1]", hidden)
	}
}

func TestSimEngineModExpAndQFT(t *testing.T) {
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(4))
	if err != nil {
		t.Fatal(err)
	}
	me, err := evaluate(context.Background(), m, "sim", arch.NewModExp(8))
	if err != nil {
		t.Fatal(err)
	}
	if me.MustMetric("computation_s") <= me.MustMetric("adder_makespan_s") {
		t.Error("modexp time should exceed one adder call")
	}
	qft, err := evaluate(context.Background(), m, "sim", arch.NewQFT(12))
	if err != nil {
		t.Fatal(err)
	}
	if qft.MustMetric("makespan_s") <= 0 {
		t.Error("QFT simulation produced no makespan")
	}
}

func TestSimEngineHonorsContext(t *testing.T) {
	m, err := arch.New(arch.WithBlocks(9))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := evaluate(ctx, m, arch.EngineDES, arch.NewAdder(64, false)); err == nil {
		t.Error("canceled context should abort the simulation")
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := (arch.Workload{Kind: "fft", Bits: 8}).Validate(); err == nil {
		t.Error("unknown kind should be rejected")
	}
	if err := arch.NewAdder(1, false).Validate(); err == nil {
		t.Error("1-bit adder should be rejected")
	}
	if err := arch.NewQFT(8).Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	for _, w := range []arch.Workload{
		{Kind: arch.KindCustom, Bits: 4},
		{Kind: arch.KindCustom, Bits: 0, Name: "c"},
		{Kind: arch.KindQFT, Bits: 8, Name: "c"},
	} {
		if err := w.Validate(); err == nil {
			t.Errorf("%+v should be rejected", w)
		}
	}
	if err := (arch.Workload{Kind: arch.KindCustom, Bits: 1, Name: "c"}).Validate(); err != nil {
		t.Errorf("1-qubit custom workload rejected: %v", err)
	}
}
