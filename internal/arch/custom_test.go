package arch_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/ecc"
	"repro/internal/phys"
)

// bell returns a small custom circuit: a Bell pair plus a Toffoli on a
// third qubit, so both engines see a multi-step schedule.
func bell() *circuit.Circuit {
	c := circuit.New(3)
	c.AddH(0)
	c.AddCNOT(0, 1)
	c.AddToffoli(0, 1, 2)
	return c
}

// TestPlanCircuit covers the custom-circuit planner: the plan describes a
// named KindCustom workload over the circuit's register, and bad input —
// no name, no circuit, no gates, an out-of-range operand — is an error.
func TestPlanCircuit(t *testing.T) {
	plan, err := arch.PlanCircuit("bell", bell())
	if err != nil {
		t.Fatal(err)
	}
	want := arch.Workload{Kind: arch.KindCustom, Bits: 3, Name: "bell"}
	if got := plan.Workload(); got != want {
		t.Errorf("plan workload %+v, want %+v", got, want)
	}
	d := plan.DAG(context.Background())
	if plan.Bits() != 3 || plan.Kernel() != "custom:bell" || d.Circuit().Len() != 3 {
		t.Errorf("plan bits %d kernel %q DAG %d nodes", plan.Bits(), plan.Kernel(), d.Circuit().Len())
	}

	bad := circuit.New(2)
	bad.Append(circuit.Instr{Kind: circuit.X, Qubits: [3]int32{-1}})
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		want string
	}{
		{"", bell(), "needs a name"},
		{"nil", nil, "is empty"},
		{"empty", circuit.New(4), "is empty"},
		{"bad", bad, "out of range"},
	} {
		if _, err := arch.PlanCircuit(tc.name, tc.c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("PlanCircuit(%q): err %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCompileCircuit plans a custom circuit, binds it to a machine and
// evaluates it on both engines; the plan carries the circuit's workload,
// and planning errors surface from PlanCircuit before any binding.
func TestCompileCircuit(t *testing.T) {
	m, err := arch.New(arch.WithBlocks(4))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := arch.PlanCircuit("bell", bell())
	if err != nil {
		t.Fatal(err)
	}
	cw, err := m.CompileWith(plan.Workload(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if w := plan.Workload(); w.Kind != arch.KindCustom || w.Name != "bell" || w.Bits != 3 {
		t.Errorf("compiled workload %+v", w)
	}
	for _, name := range arch.EngineNames() {
		res, err := evaluateCompiled(context.Background(), cw, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Metrics) == 0 {
			t.Errorf("%s: result %+v", name, res)
		}
	}
	if _, err := arch.PlanCircuit("", bell()); err == nil {
		t.Error("PlanCircuit accepted an unnamed circuit")
	}
}

// TestMachineAccessors pins the accessors to the options the machine was
// built from.
func TestMachineAccessors(t *testing.T) {
	p := phys.Current()
	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithParams(p))
	if err != nil {
		t.Fatal(err)
	}
	if m.Code().Short != ecc.BaconShor().Short {
		t.Errorf("Code() = %s", m.Code().Name)
	}
	if m.Analytic().Config().Code != m.Code() || m.Analytic().Config().Params != p {
		t.Error("the analytic model was not built from the machine's configuration")
	}
}

// TestKinds checks the built-in kind list: every kind validates at a
// common width, none is custom, and adder/modexp share one kernel.
func TestKinds(t *testing.T) {
	kinds := arch.Kinds()
	if len(kinds) == 0 {
		t.Fatal("no built-in kinds")
	}
	for _, k := range kinds {
		if k == arch.KindCustom {
			t.Error("Kinds() lists the custom kind")
		}
		if err := arch.NewKind(k, 8).Validate(); err != nil {
			t.Errorf("%s/8 rejected: %v", k, err)
		}
	}
	if arch.NewKind(arch.KindModExp, 8).Kernel() != arch.NewAdder(8, false).Kernel() {
		t.Error("modexp and adder should share the carry-lookahead kernel")
	}
}
