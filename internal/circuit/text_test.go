package circuit

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestParseErrorPaths pins every diagnostic in docs/workload-format.md to a
// positioned *ParseError.
func TestParseErrorPaths(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		wantLine int
		wantMsg  string
	}{
		{"empty file", "", 0, "missing qubits header"},
		{"comments only", "# nothing here\n\n", 0, "missing qubits header"},
		{"instruction before header", "cnot 0 1\n", 1, "instruction before qubits header"},
		{"duplicate header", "qubits 2\nqubits 3\n", 2, "duplicate qubits header"},
		{"malformed header", "qubits\n", 1, "malformed qubits header"},
		{"header extra field", "qubits 2 3\n", 1, "malformed qubits header"},
		{"bad count", "qubits x\n", 1, `invalid qubit count "x"`},
		{"negative count", "qubits -1\n", 1, `invalid qubit count "-1"`},
		{"count over limit", "qubits 2000000000\nh 0\n", 1, "qubit count 2000000000 exceeds the limit 1048576"},
		{"unknown mnemonic", "qubits 2\nbogus 0\n", 2, `unknown mnemonic "bogus"`},
		{"arity short", "qubits 2\ncnot 0\n", 2, "cnot takes 2 fields, got 1"},
		{"arity long", "qubits 2\nh 0 1\n", 2, "h takes 1 fields, got 2"},
		{"missing angle", "qubits 2\ncphase 0 1\n", 2, "cphase takes 3 fields, got 2"},
		{"bad operand", "qubits 2\ncnot 0 z\n", 2, `invalid qubit "z"`},
		{"negative operand", "qubits 2\ncnot 0 -1\n", 2, `invalid qubit "-1"`},
		{"operand out of range", "qubits 2\ncnot 0 2\n", 2, "qubit 2 outside the declared register [0,2)"},
		{"duplicate operand", "qubits 2\ncnot 0 0\n", 2, "cnot operands must be distinct, got 0 twice"},
		{"toffoli duplicate operand", "qubits 3\ntoffoli 0 1 1\n", 2, "toffoli operands must be distinct, got 1 twice"},
		{"bad angle", "qubits 2\ncphase 0 1 zz\n", 2, `invalid angle "zz"`},
		{"nan angle", "qubits 2\ncphase 0 1 NaN\n", 2, `invalid angle "NaN"`},
		{"inf angle", "qubits 2\ncphase 0 1 +Inf\n", 2, `invalid angle "+Inf"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.src)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q) = %v, want *ParseError", tc.src, err)
			}
			if pe.Line != tc.wantLine {
				t.Errorf("line = %d, want %d (err %v)", pe.Line, tc.wantLine, err)
			}
			if pe.Msg != tc.wantMsg {
				t.Errorf("msg = %q, want %q", pe.Msg, tc.wantMsg)
			}
		})
	}
}

// TestParseQubitBound: the header may declare MaxQubits qubits and no
// more, and the limit is checked before any instruction is read.
func TestParseQubitBound(t *testing.T) {
	c, err := ParseString(fmt.Sprintf("qubits %d\nh 0\n", MaxQubits))
	if err != nil {
		t.Fatalf("a MaxQubits header was rejected: %v", err)
	}
	if c.NumQubits() != MaxQubits {
		t.Errorf("NumQubits = %d, want %d", c.NumQubits(), MaxQubits)
	}
	_, err = ParseString(fmt.Sprintf("# big\nqubits %d\n", MaxQubits+1))
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 2 {
		t.Errorf("MaxQubits+1 header: %v, want a *ParseError on line 2", err)
	}
}

// TestParseLongLine: a line over the 16 MiB limit is a positioned error,
// through the reader entry point as through the string one.
func TestParseLongLine(t *testing.T) {
	src := "qubits 1\n" + strings.Repeat(" ", maxLineBytes+1) + "\nh 0\n"
	for name, parse := range map[string]func(string) (*Circuit, error){
		"ParseString": ParseString,
		"Parse":       func(s string) (*Circuit, error) { return Parse(strings.NewReader(s)) },
	} {
		_, err := parse(src)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 2 || pe.Msg != "line longer than 16777216 bytes" {
			t.Errorf("%s: over-long line = %v, want a *ParseError on line 2", name, err)
		}
	}
}

// TestParseNeverPanics covers the inputs that used to reach NewInstr's
// panics through Parse (e.g. a gate wired back onto its own operand).
func TestParseNeverPanics(t *testing.T) {
	srcs := []string{
		"qubits 2\ncnot 0 0\n",
		"qubits 3\ntoffoli 2 2 2\n",
		"qubits 2\ncz 1 1\n",
		"qubits 1\ncnot 0 -3\n",
	}
	for _, src := range srcs {
		if _, err := ParseString(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorString(t *testing.T) {
	if got := (&ParseError{Msg: "missing qubits header"}).Error(); got != "circuit: missing qubits header" {
		t.Errorf("unpositioned error = %q", got)
	}
	if got := (&ParseError{Line: 3, Msg: "boom"}).Error(); got != "circuit: line 3: boom" {
		t.Errorf("positioned error = %q", got)
	}
}

// TestFormatCanonical pins the exact bytes Format emits: header first, one
// instruction per line, cphase angle in %.17g.
func TestFormatCanonical(t *testing.T) {
	c := New(3)
	c.AddH(0)
	c.AddCPhase(0, 1, 0.5)
	c.AddToffoli(0, 1, 2)
	want := "qubits 3\nh 0\ncphase 0 1 0.5\ntoffoli 0 1 2\n"
	if got := FormatString(c); got != want {
		t.Errorf("FormatString = %q, want %q", got, want)
	}
}

// TestParseFormatFixedPoint checks that Format output is a fixed point:
// parsing a canonical document and re-formatting reproduces it byte for
// byte, and whitespace/comment variations (Unicode spaces included, as
// strings.Fields splits on them) normalize to the same bytes.
func TestParseFormatFixedPoint(t *testing.T) {
	src := "# messy input\n\n  qubits 4  \n\th   0\n cnot 0 1\ncphase 2 3 3.1415926535897931\n\u2003x\u00a03\u0085\n"
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	canonical := FormatString(c)
	if !strings.HasSuffix(canonical, "\nx 3\n") {
		t.Errorf("Unicode-spaced line did not normalize to \"x 3\": %q", canonical)
	}
	c2, err := ParseString(canonical)
	if err != nil {
		t.Fatalf("re-parsing canonical form: %v", err)
	}
	if again := FormatString(c2); again != canonical {
		t.Errorf("Format not a fixed point:\n%q\n%q", canonical, again)
	}
}

// TestParseSatisfiesValidate checks the Parse postcondition.
func TestParseSatisfiesValidate(t *testing.T) {
	c, err := ParseString("qubits 3\nh 0\ncnot 0 1\ntoffoli 0 1 2\nmeasure 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("parsed circuit fails Validate: %v", err)
	}
}

// FuzzParse asserts that Parse never panics and that every accepted input
// has a canonical form that is a Parse/Format fixed point preserving the
// full instruction list.
func FuzzParse(f *testing.F) {
	f.Add("qubits 2\ncnot 0 1\n")
	f.Add("qubits 4\nh 0\ncphase 0 1 0.78539816339744828\nmeasure 3\n")
	f.Add("# comment\nqubits 3\n\ntoffoli 0 1 2\n")
	f.Add("qubits 2\ncnot 0 0\n")
	f.Add("qubits 0\n")
	f.Add("cnot 0 1")
	f.Add("qubits 2\ncphase 0 1 NaN\n")
	f.Add(strings.Repeat("qubits 2\n", 2))
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse returned a non-ParseError: %v", err)
			}
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted circuit fails Validate: %v", err)
		}
		canonical := FormatString(c)
		c2, err := ParseString(canonical)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%q", err, canonical)
		}
		if c2.NumQubits() != c.NumQubits() || c2.Len() != c.Len() {
			t.Fatalf("round trip lost structure: %d/%d qubits, %d/%d instrs",
				c.NumQubits(), c2.NumQubits(), c.Len(), c2.Len())
		}
		for i := range c.Instrs() {
			a, b := c.Instr(i), c2.Instr(i)
			if a.Kind != b.Kind || a.Qubits != b.Qubits || a.Angle != b.Angle {
				t.Fatalf("instr %d: %v != %v", i, a, b)
			}
		}
		if again := FormatString(c2); again != canonical {
			t.Fatalf("Format not a fixed point:\n%q\n%q", canonical, again)
		}
	})
}
