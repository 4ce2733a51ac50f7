package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file implements the repository's line-oriented text circuit format —
// the "assembly language" the paper describes as its simulator input. The
// normative specification (grammar, gate set, error cases, a worked
// example) lives in docs/workload-format.md; Parse and Format are its
// reference implementation and every other entry point (FormatString,
// ParseString, cmd/qcirc, the serve API's circuit field) delegates to them.
//
// The format, in brief:
//
//	qubits N                     header, exactly once, before any gate
//	<mnemonic> <q...> [angle]    one instruction per line
//	# ...                        comment; blank lines are ignored
//
// Operands are distinct qubit indices in [0, N); cphase carries one extra
// finite angle field, rendered as %.17g so float64 values round-trip
// exactly.

// ParseError is a positioned syntax or validity error from Parse, carrying
// the 1-based line number the problem was found on.
type ParseError struct {
	Line int
	Msg  string
}

// Error renders the error in the historical "circuit: line N: ..." shape.
func (e *ParseError) Error() string {
	if e.Line == 0 {
		return "circuit: " + e.Msg
	}
	return fmt.Sprintf("circuit: line %d: %s", e.Line, e.Msg)
}

func parseErrorf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Format writes the circuit in canonical text form: the qubits header
// followed by one instruction per line, exactly as Instr.String renders
// them. Format output always re-parses to an equal circuit, and parsing
// then formatting any valid document yields the canonical bytes — the
// `qcirc gen | qcirc fmt` round trip is the identity.
func Format(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "qubits %d\n", c.NumQubits()); err != nil {
		return err
	}
	for _, in := range c.Instrs() {
		if _, err := fmt.Fprintln(bw, in.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FormatString renders the canonical text form as a string.
func FormatString(c *Circuit) string {
	var sb strings.Builder
	if err := Format(&sb, c); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return sb.String()
}

// Parse reads one circuit from the text format. Every malformed input —
// missing or duplicate header, unknown mnemonic, wrong operand count,
// out-of-range or repeated operands, bad angle — returns a *ParseError
// naming the offending line; Parse never panics on untrusted input. The
// returned circuit additionally satisfies Validate.
func Parse(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var c *Circuit
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "qubits" {
			if c != nil {
				return nil, parseErrorf(lineNo, "duplicate qubits header")
			}
			if len(fields) != 2 {
				return nil, parseErrorf(lineNo, "malformed qubits header")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, parseErrorf(lineNo, "invalid qubit count %q", fields[1])
			}
			c = New(n)
			continue
		}
		if c == nil {
			return nil, parseErrorf(lineNo, "instruction before qubits header")
		}
		in, err := parseInstr(fields, c.NumQubits(), lineNo)
		if err != nil {
			return nil, err
		}
		c.Append(in)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, &ParseError{Msg: "missing qubits header"}
	}
	return c, nil
}

// parseInstr validates and decodes one instruction line. It performs every
// check NewInstr would panic on — arity, operand range, operand
// distinctness (a two-qubit gate wired back onto its own operand, like
// "cnot 0 0", is a self-cycle, not a gate) — as positioned errors.
func parseInstr(fields []string, numQubits, lineNo int) (Instr, error) {
	kind, ok := kindByName(fields[0])
	if !ok {
		return Instr{}, parseErrorf(lineNo, "unknown mnemonic %q", fields[0])
	}
	wantOperands := kind.Arity()
	wantFields := 1 + wantOperands
	if kind == CPhase {
		wantFields++
	}
	if len(fields) != wantFields {
		return Instr{}, parseErrorf(lineNo, "%s takes %d fields, got %d", fields[0], wantFields-1, len(fields)-1)
	}
	var in Instr
	in.Kind = kind
	for i := 0; i < wantOperands; i++ {
		q, err := strconv.Atoi(fields[1+i])
		if err != nil || q < 0 {
			return Instr{}, parseErrorf(lineNo, "invalid qubit %q", fields[1+i])
		}
		if q >= numQubits {
			return Instr{}, parseErrorf(lineNo, "qubit %d outside the declared register [0,%d)", q, numQubits)
		}
		for j := 0; j < i; j++ {
			if in.Qubits[j] == q {
				return Instr{}, parseErrorf(lineNo, "%s operands must be distinct, got %s twice", fields[0], fields[1+i])
			}
		}
		in.Qubits[i] = q
	}
	if kind == CPhase {
		angle, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil || math.IsNaN(angle) || math.IsInf(angle, 0) {
			return Instr{}, parseErrorf(lineNo, "invalid angle %q", fields[len(fields)-1])
		}
		in.Angle = angle
	}
	return in, nil
}

// ParseString parses the text format from a string.
func ParseString(s string) (*Circuit, error) {
	return Parse(strings.NewReader(s))
}

func kindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if kindInfo[k].name == name {
			return k, true
		}
	}
	return 0, false
}
