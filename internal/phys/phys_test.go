package phys

import (
	"math"
	"testing"
	"time"
)

func TestProjectedMatchesTable1(t *testing.T) {
	p := Projected()
	cases := []struct {
		op   Op
		time time.Duration
		fail float64
	}{
		{SingleGate, 1 * time.Microsecond, 1e-8},
		{DoubleGate, 10 * time.Microsecond, 1e-7},
		{Measure, 10 * time.Microsecond, 1e-8},
		{Move, 10 * time.Microsecond, 1e-6},
		{Split, 100 * time.Nanosecond, 0},
		{Cool, 100 * time.Nanosecond, 0},
	}
	for _, c := range cases {
		got := p.Op(c.op)
		if got.Time != c.time {
			t.Errorf("%v time = %v, want %v", c.op, got.Time, c.time)
		}
		if got.FailureRate != c.fail {
			t.Errorf("%v failure = %g, want %g", c.op, got.FailureRate, c.fail)
		}
	}
}

func TestCurrentMatchesTable1(t *testing.T) {
	p := Current()
	if got := p.Op(SingleGate); got.Time != time.Microsecond || got.FailureRate != 1e-4 {
		t.Errorf("single gate = %+v", got)
	}
	if got := p.Op(DoubleGate); got.FailureRate != 0.03 {
		t.Errorf("double gate failure = %g, want 0.03", got.FailureRate)
	}
	if got := p.Op(Measure); got.Time != 200*time.Microsecond || got.FailureRate != 0.01 {
		t.Errorf("measure = %+v", got)
	}
	if p.TrapSizeMicron != 200 {
		t.Errorf("current trap size = %g, want 200", p.TrapSizeMicron)
	}
}

func TestRegionGeometry(t *testing.T) {
	p := Projected()
	if got := p.RegionPitchMicron(); got != 50 {
		t.Errorf("region pitch = %g µm, want 50 (5 µm traps x 10 electrodes)", got)
	}
	area := p.RegionAreaMM2()
	if area < 0.0024 || area > 0.0026 {
		t.Errorf("region area = %g mm², want 0.0025", area)
	}
}

func TestDurationRoundTrip(t *testing.T) {
	p := Projected()
	for _, cycles := range []int{1, 10, 154, 30000} {
		d := p.Duration(cycles)
		if got := int(d / (10 * time.Microsecond)); got != cycles || d%(10*time.Microsecond) != 0 {
			t.Errorf("Duration(%d) = %v, not %d cycles of 10µs", cycles, d, cycles)
		}
	}
}

func TestAverageFailureProjected(t *testing.T) {
	p := Projected()
	want := (1e-8 + 1e-7 + 1e-8 + 1e-6) / 4
	if got := p.AverageFailure(); math.Abs(got-want) > 1e-18 {
		t.Errorf("AverageFailure = %g, want %g", got, want)
	}
}

func TestValidate(t *testing.T) {
	for _, p := range []Params{Current(), Projected()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := Projected()
	bad.CycleTime = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cycle time should not validate")
	}
	bad2 := Projected()
	bad2.SetOp(Measure, OpParams{Time: time.Microsecond, FailureRate: 2})
	if err := bad2.Validate(); err == nil {
		t.Error("failure rate > 1 should not validate")
	}
}

func TestSetOpOverride(t *testing.T) {
	p := Projected()
	p.SetOp(DoubleGate, OpParams{Time: 5 * time.Microsecond, FailureRate: 1e-9})
	if got := p.Op(DoubleGate); got.FailureRate != 1e-9 {
		t.Errorf("override not applied: %+v", got)
	}
}

func TestOpString(t *testing.T) {
	if SingleGate.String() != "single-gate" || Move.String() != "move" {
		t.Error("unexpected op names")
	}
	if Op(99).String() == "" {
		t.Error("out-of-range op should still render")
	}
}

func TestOpsEnumerates(t *testing.T) {
	ops := Ops()
	if len(ops) != int(numOps) {
		t.Fatalf("Ops() has %d entries, want %d", len(ops), numOps)
	}
	for i, o := range ops {
		if int(o) != i {
			t.Errorf("Ops()[%d] = %v", i, o)
		}
	}
}

func TestOpBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid op")
		}
	}()
	Projected().Op(Op(-1))
}
