package arch_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/gen"
	"repro/internal/phys"
)

// evaluate is the one-shot path: compile w on m, then evaluate it on eng.
func evaluate(ctx context.Context, m *arch.Machine, eng arch.Engine, w arch.Workload) (arch.Result, error) {
	cw, err := m.Compile(w)
	if err != nil {
		return arch.Result{}, err
	}
	return arch.EvaluateCompiled(ctx, eng, cw)
}

func TestNewDefaults(t *testing.T) {
	m, err := arch.New()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := m.Engine(arch.EngineAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluate(context.Background(), m, eng, arch.NewAdder(8, false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Config
	if cfg.Code != "steane" || cfg.Phys != "projected" {
		t.Errorf("default code/phys = %q/%q", cfg.Code, cfg.Phys)
	}
	if cfg.Blocks != 36 || cfg.Transfers != 10 {
		t.Errorf("default blocks/transfers = %d/%d", cfg.Blocks, cfg.Transfers)
	}
	if cfg.CacheFactor != cqla.CacheFactor || cfg.Overlap != cqla.TransferOverlap {
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

func TestEngineLookup(t *testing.T) {
	m, err := arch.New()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"":         arch.EngineAnalytic,
		"analytic": arch.EngineAnalytic,
		"des":      arch.EngineDES,
		"sim":      arch.EngineDES,
	} {
		eng, err := m.Engine(name)
		if err != nil {
			t.Fatalf("Engine(%q): %v", name, err)
		}
		if eng.Name() != want {
			t.Errorf("Engine(%q).Name() = %q, want %q", name, eng.Name(), want)
		}
	}
	if _, err := m.Engine("montecarlo"); err == nil {
		t.Error("unknown engine should be rejected")
	}
}

// TestAnalyticMatchesClosedForm demands bitwise agreement between the
// engine's envelope and the direct cqla computation it wraps — the API is
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
	eng, err := m.Engine(arch.EngineAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluate(context.Background(), m, eng, arch.NewAdder(256, true))
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
	if res.SchemaVersion != arch.SchemaVersion || res.Engine != arch.EngineAnalytic {
		t.Errorf("envelope header: %+v", res)
	}
	if res.Config.Code != "bacon-shor" || res.Workload.Bits != 256 {
		t.Errorf("envelope echo: %+v %+v", res.Config, res.Workload)
	}
}

func TestSimEngineAdder(t *testing.T) {
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(9))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := m.Engine(arch.EngineDES)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluate(context.Background(), m, eng, arch.NewAdder(16, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != arch.EngineDES || len(res.Metrics) == 0 {
		t.Fatalf("unpopulated des envelope: %+v", res)
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
	eng, err := m.Engine("sim")
	if err != nil {
		t.Fatal(err)
	}
	me, err := evaluate(context.Background(), m, eng, arch.NewModExp(8))
	if err != nil {
		t.Fatal(err)
	}
	if me.MustMetric("computation_s") <= me.MustMetric("adder_makespan_s") {
		t.Error("modexp time should exceed one adder call")
	}
	qft, err := evaluate(context.Background(), m, eng, arch.NewQFT(12))
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
	eng, err := m.Engine(arch.EngineDES)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := evaluate(ctx, m, eng, arch.NewAdder(64, false)); err == nil {
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

// TestResultJSONStable: the envelope is the serving contract — it must
// parse, carry the version, and render metrics in engine order.
func TestResultJSONStable(t *testing.T) {
	m, err := arch.New(arch.WithCodeName("steane"), arch.WithBlocks(4))
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := m.Engine("")
	res, err := evaluate(context.Background(), m, eng, arch.NewAdder(32, false))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(res)
	if string(b1) != string(b2) {
		t.Error("marshaling the same result twice should be byte-identical")
	}
	var doc struct {
		SchemaVersion int                `json:"schema_version"`
		Engine        string             `json:"engine"`
		Workload      map[string]any     `json:"workload"`
		Config        map[string]any     `json:"config"`
		Metrics       map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("envelope does not parse: %v\n%s", err, b1)
	}
	if doc.SchemaVersion != arch.SchemaVersion || doc.Engine != "analytic" {
		t.Errorf("header: %+v", doc)
	}
	if doc.Config["code"] != "steane" || doc.Workload["kind"] != "adder" {
		t.Errorf("echo: %+v", doc)
	}
	if doc.Metrics["area_reduction"] == 0 {
		t.Error("metrics did not round-trip")
	}
	// Field order is part of the contract: version first, metrics last.
	s := string(b1)
	if !strings.HasPrefix(s, `{"schema_version":`) || !strings.Contains(s, `"metrics":{"area_reduction":`) {
		t.Errorf("unexpected field layout: %s", s)
	}
}
