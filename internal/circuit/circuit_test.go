package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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

// TestInstrLayout pins the compact instruction: a one-byte Kind, three
// int32 operands and the float64 angle pack into 24 bytes.
func TestInstrLayout(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 24 {
		t.Errorf("sizeof(Instr) = %d, want 24", got)
	}
}

// panicText runs f and returns the message it panics with, or "" if it
// returns normally.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestInstrPanics pins NewInstr's panic texts, the duplicate operand
// message included: it formats the whole operand list, although the
// operands reach it by value.
func TestInstrPanics(t *testing.T) {
	for _, tc := range []struct {
		f    func()
		want string
	}{
		{func() { NewInstr(CNOT, 0) }, "circuit: cnot takes 2 operands, got 1"},
		{func() { NewInstr(Toffoli, 0, 1) }, "circuit: toffoli takes 3 operands, got 2"},
		{func() { NewInstr(Measure, 0, 1) }, "circuit: measure takes 1 operands, got 2"},
		{func() { NewInstr(X, -1) }, "circuit: negative qubit -1"},
		{func() { NewInstr(CNOT, 4, -2) }, "circuit: negative qubit -2"},
		{func() { NewInstr(CNOT, 1, 1) }, "circuit: cnot operands must be distinct, got [1 1]"},
		{func() { NewInstr(Toffoli, 0, 0, 5) }, "circuit: toffoli operands must be distinct, got [0 0 5]"},
		{func() { NewInstr(Toffoli, 4, 2, 4) }, "circuit: toffoli operands must be distinct, got [4 2 4]"},
	} {
		if got := panicText(tc.f); got != tc.want {
			t.Errorf("panic %q, want %q", got, tc.want)
		}
	}
	if strconv.IntSize == 64 {
		var big int64 = math.MaxInt32 + 1
		want := "circuit: qubit 2147483648 exceeds the operand limit 2147483647"
		if got := panicText(func() { NewInstr(CNOT, 0, int(big)) }); got != want {
			t.Errorf("panic %q, want %q", got, want)
		}
	}
	if in := NewInstr(X, math.MaxInt32); in.Qubits[0] != math.MaxInt32 {
		t.Errorf("operand %d, want the limit %d itself", in.Qubits[0], math.MaxInt32)
	}
}

// TestCheckDAGBound: the int32 arena holds up to math.MaxInt32 of each
// instruction index, edge offset and start slot, and one more of any
// panics with the counts.
func TestCheckDAGBound(t *testing.T) {
	checkDAGBound(math.MaxInt32, math.MaxInt32, math.MaxInt32) // at the bound: no panic
	if strconv.IntSize < 64 {
		t.Skip("an int cannot exceed the bound")
	}
	var over int64 = math.MaxInt32 + 1
	big := int(over)
	for _, tc := range []struct {
		n, edges, slots int
		want            string
	}{
		{big, 0, 0, "circuit: 2147483648 instructions, 0 dependency edges and 0 slots exceed the DAG's int32 bound of 2147483647"},
		{1, big, 0, "circuit: 1 instructions, 2147483648 dependency edges and 0 slots exceed the DAG's int32 bound of 2147483647"},
		{1, 0, big, "circuit: 1 instructions, 0 dependency edges and 2147483648 slots exceed the DAG's int32 bound of 2147483647"},
	} {
		if got := panicText(func() { checkDAGBound(tc.n, tc.edges, tc.slots) }); got != tc.want {
			t.Errorf("checkDAGBound(%d, %d, %d) panic %q, want %q", tc.n, tc.edges, tc.slots, got, tc.want)
		}
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
	c.instrs = append(c.instrs, Instr{Kind: CNOT, Qubits: [3]int32{0, 5, 0}})
	if err := c.Validate(); err == nil {
		t.Error("expected range error")
	}
	c2 := New(2)
	c2.instrs = append(c2.instrs, Instr{Kind: CPhase, Qubits: [3]int32{0, 1, 0}, Angle: math.NaN()})
	if err := c2.Validate(); err == nil {
		t.Error("expected angle error")
	}
	// Kind is unsigned, so an invalid kind is one at or above numKinds.
	c3 := New(2)
	c3.instrs = append(c3.instrs, Instr{Kind: Kind(200)})
	if err := c3.Validate(); err == nil || err.Error() != "circuit: instruction 0 has invalid kind 200" {
		t.Errorf("Validate() = %v, want the invalid-kind error", err)
	}
	if got := Kind(200).String(); got != "circuit.Kind(200)" {
		t.Errorf("Kind(200).String() = %q", got)
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
