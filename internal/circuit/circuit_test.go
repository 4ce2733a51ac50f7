package circuit

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestInstrConstruction(t *testing.T) {
	in := NewInstr(Toffoli, 1, 2, 3)
	if in.Kind != Toffoli || len(in.Operands()) != 3 {
		t.Fatalf("bad instr %+v", in)
	}
	if in.Slots() != ToffoliSlots {
		t.Errorf("toffoli slots = %d, want %d", in.Slots(), ToffoliSlots)
	}
	if NewInstr(CNOT, 0, 1).Slots() != 1 {
		t.Error("cnot should take one slot")
	}
}

func TestInstrPanics(t *testing.T) {
	cases := []func(){
		func() { NewInstr(CNOT, 0) },       // wrong arity
		func() { NewInstr(CNOT, 1, 1) },    // duplicate operands
		func() { NewInstr(X, -1) },         // negative qubit
		func() { NewInstr(Toffoli, 0, 1) }, // wrong arity
		func() { NewInstr(Measure, 0, 1) }, // wrong arity
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCircuitBuilderAndStats(t *testing.T) {
	c := New(4)
	c.AddH(0)
	c.AddCNOT(0, 1)
	c.AddToffoli(0, 1, 2)
	c.AddT(3)
	c.AddMeasure(2)
	s := c.Stats()
	if s.Instructions != 5 || s.Toffolis != 1 || s.TwoQubit != 1 || s.SingleQubit != 2 || s.Measurements != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.TotalSlots != 1+1+ToffoliSlots+1+1 {
		t.Errorf("total slots = %d", s.TotalSlots)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAppendGrowsRegister(t *testing.T) {
	c := New(1)
	c.AddCNOT(0, 7)
	if c.NumQubits() != 8 {
		t.Errorf("register = %d, want 8", c.NumQubits())
	}
}

func TestGrowReservesWithoutChangingContent(t *testing.T) {
	c := New(2)
	c.AddH(0)
	c.Grow(3)
	if c.Len() != 1 || cap(c.Instrs()) < 4 {
		t.Fatalf("after Grow(3): len %d cap %d, want len 1 cap >= 4", c.Len(), cap(c.Instrs()))
	}
	before := &c.Instrs()[0]
	c.AddCNOT(0, 1)
	c.AddX(1)
	c.AddCZ(0, 1)
	if &c.Instrs()[0] != before {
		t.Error("appending within the reservation reallocated the instruction list")
	}
	if c.Instr(0).Kind != H || c.Instr(3).Kind != CZ {
		t.Errorf("instructions %v", c.Instrs())
	}
}

func TestDAGSerialChain(t *testing.T) {
	c := New(1)
	c.AddH(0)
	c.AddT(0)
	c.AddH(0)
	d := BuildDAG(c)
	if d.Depth() != 3 {
		t.Errorf("depth = %d, want 3", d.Depth())
	}
	if d.MaxParallelism() != 1 {
		t.Errorf("parallelism = %d, want 1", d.MaxParallelism())
	}
}

func TestDAGIndependentGates(t *testing.T) {
	c := New(4)
	for q := 0; q < 4; q++ {
		c.AddH(q)
	}
	d := BuildDAG(c)
	if d.Depth() != 1 {
		t.Errorf("depth = %d, want 1", d.Depth())
	}
	if d.MaxParallelism() != 4 {
		t.Errorf("parallelism = %d, want 4", d.MaxParallelism())
	}
}

func TestDAGToffoliWeight(t *testing.T) {
	c := New(3)
	c.AddToffoli(0, 1, 2)
	c.AddX(2) // depends on the toffoli
	d := BuildDAG(c)
	if d.ASAPStart(1) != ToffoliSlots {
		t.Errorf("X starts at %d, want %d", d.ASAPStart(1), ToffoliSlots)
	}
	if d.Depth() != ToffoliSlots+1 {
		t.Errorf("depth = %d", d.Depth())
	}
}

func TestDAGSharedControlSerializes(t *testing.T) {
	c := New(3)
	c.AddCNOT(0, 1)
	c.AddCNOT(0, 2) // shares the control qubit
	d := BuildDAG(c)
	if d.Depth() != 2 {
		t.Errorf("depth = %d, want 2 (shared control must serialize)", d.Depth())
	}
}

func TestProfileConservesWork(t *testing.T) {
	c := New(6)
	c.AddToffoli(0, 1, 2)
	c.AddCNOT(3, 4)
	c.AddH(5)
	c.AddCNOT(2, 3)
	d := BuildDAG(c)
	sum := 0
	for _, w := range d.Profile() {
		sum += w
	}
	if sum != d.TotalSlots() {
		t.Errorf("profile area %d != total slots %d", sum, d.TotalSlots())
	}
}

func TestTextRoundTrip(t *testing.T) {
	c := New(5)
	c.AddH(0)
	c.AddCNOT(0, 1)
	c.AddToffoli(0, 1, 4)
	c.AddCPhase(2, 3, math.Pi/8)
	c.AddMeasure(4)
	text := FormatString(c)
	got, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumQubits() != 5 || got.Len() != c.Len() {
		t.Fatalf("round trip lost structure: %d qubits, %d instrs", got.NumQubits(), got.Len())
	}
	for i := range c.Instrs() {
		a, b := c.Instr(i), got.Instr(i)
		if a.Kind != b.Kind || a.Qubits != b.Qubits || a.Angle != b.Angle {
			t.Errorf("instr %d: %v != %v", i, a, b)
		}
	}
}

func TestDecodeComments(t *testing.T) {
	src := "# adder fragment\nqubits 3\n\ncnot 0 1\n# comment\ntoffoli 0 1 2\n"
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"cnot 0 1",                // missing header
		"qubits 2\nqubits 3",      // duplicate header
		"qubits x",                // bad count
		"qubits 2\nbogus 0",       // unknown mnemonic
		"qubits 2\ncnot 0",        // missing operand
		"qubits 2\ncnot 0 z",      // bad operand
		"qubits 2\ncphase 0 1 zz", // bad angle
		"",                        // empty
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("decoding %q should fail", src)
		}
	}
}

func TestReversedInvertsCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New(4)
	c.AddH(0)
	c.AddT(1)
	c.AddS(2)
	c.AddCNOT(0, 1)
	c.AddCPhase(1, 2, math.Pi/3)
	c.AddToffoli(0, 1, 3)
	full := New(4)
	full.AppendAll(c)
	full.AppendAll(c.Reversed())
	s, err := Simulate(full, 0b0110, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(0b0110); math.Abs(p-1) > 1e-9 {
		t.Errorf("C·C⁻¹ not identity: P = %g", p)
	}
}

func TestReversedRejectsMeasure(t *testing.T) {
	c := New(1)
	c.AddMeasure(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Reversed()
}

func TestSimulateBellPair(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := New(2)
	c.AddH(0)
	c.AddCNOT(0, 1)
	s, err := Simulate(c, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(0b00)-0.5) > 1e-9 || math.Abs(s.Probability(0b11)-0.5) > 1e-9 {
		t.Error("Bell pair amplitudes wrong")
	}
}

func TestSimulateRejectsWideCircuits(t *testing.T) {
	c := New(31)
	if _, err := Simulate(c, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected width error")
	}
}

// Property: DAG depth is between the longest per-qubit serial load and the
// total work, for random circuits.
func TestDepthBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		c := New(n)
		for i := 0; i < 40; i++ {
			switch rng.Intn(3) {
			case 0:
				c.AddH(rng.Intn(n))
			case 1:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.AddCNOT(a, b)
				}
			case 2:
				a, b, d := rng.Intn(n), rng.Intn(n), rng.Intn(n)
				if a != b && b != d && a != d {
					c.AddToffoli(a, b, d)
				}
			}
		}
		dag := BuildDAG(c)
		// Longest per-qubit load lower-bounds the depth.
		load := make([]int, n)
		for _, in := range c.Instrs() {
			for _, q := range in.Operands() {
				load[q] += in.Slots()
			}
		}
		maxLoad := 0
		for _, l := range load {
			if l > maxLoad {
				maxLoad = l
			}
		}
		return dag.Depth() >= maxLoad && dag.Depth() <= dag.TotalSlots()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: text round-trip preserves every instruction for random circuits.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		c := New(n)
		for i := 0; i < 30; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				c.AddT(a)
			case 1:
				if a != b {
					c.AddCNOT(a, b)
				}
			case 2:
				if a != b {
					c.AddCPhase(a, b, rng.Float64()*math.Pi)
				}
			case 3:
				c.AddH(a)
			}
		}
		got, err := ParseString(FormatString(c))
		if err != nil || got.Len() != c.Len() {
			return false
		}
		for i := range c.Instrs() {
			x, y := c.Instr(i), got.Instr(i)
			if x.Kind != y.Kind || x.Qubits != y.Qubits || x.Angle != y.Angle {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	c := New(2)
	c.instrs = append(c.instrs, Instr{Kind: CNOT, Qubits: [3]int{0, 5, 0}})
	if err := c.Validate(); err == nil {
		t.Error("expected range error")
	}
	c2 := New(2)
	c2.instrs = append(c2.instrs, Instr{Kind: CPhase, Qubits: [3]int{0, 1, 0}, Angle: math.NaN()})
	if err := c2.Validate(); err == nil {
		t.Error("expected angle error")
	}
}

func TestEncodeDecodeViaWriter(t *testing.T) {
	c := New(2)
	c.AddCNOT(0, 1)
	var sb strings.Builder
	if err := Format(&sb, c); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "qubits 2\n") {
		t.Errorf("missing header: %q", sb.String())
	}
}
