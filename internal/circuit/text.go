package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file implements the repository's line-oriented text circuit format —
// the "assembly language" the paper describes as its simulator input. The
// normative specification (grammar, gate set, error cases, a worked
// example) lives in docs/workload-format.md; ParseString and Format are its
// reference implementation and every other entry point (FormatString,
// Parse, cmd/qcirc, the serve API's circuit field) delegates to them.
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

// MaxQubits is the largest register a document may declare. The layers a
// parsed circuit feeds size per-qubit tables from the header (the DAG
// builder's scratch, the des engine's residency and waiter tables), so a
// header above it is a parse error: a 20-byte document must not be able
// to claim gigabytes downstream.
const MaxQubits = 1 << 20

// maxLineBytes bounds one line of a document; a longer line is a parse
// error rather than an unbounded token.
const maxLineBytes = 1 << 24

// maxFields is the most fields any valid line has (cphase and toffoli:
// mnemonic plus three). Longer lines are counted, not stored, since they
// are errors.
const maxFields = 4

// Parse reads the whole document from r and parses it as ParseString
// does. Every malformed input — missing or duplicate header, a qubit
// count above MaxQubits, unknown mnemonic, wrong operand count,
// out-of-range or repeated operands, bad angle, a line over 16 MiB —
// returns a *ParseError naming the offending line; a read error from r is
// returned as is. Parse never panics on untrusted input. The returned
// circuit additionally satisfies Validate.
func Parse(r io.Reader) (*Circuit, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	return ParseString(sb.String())
}

// ParseString parses the text format from a string: one pass over its
// lines that slices fields out of the document in place, so a valid
// document costs the circuit and its instruction slice, reserved up
// front from the line count, and nothing per line.
func ParseString(s string) (*Circuit, error) {
	var c *Circuit
	var f [maxFields]string
	for lineNo := 1; s != ""; lineNo++ {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		if len(line) > maxLineBytes {
			return nil, parseErrorf(lineNo, "line longer than %d bytes", maxLineBytes)
		}
		n := splitFields(line, &f)
		if n == 0 || f[0][0] == '#' {
			continue
		}
		if f[0] == "qubits" {
			if c != nil {
				return nil, parseErrorf(lineNo, "duplicate qubits header")
			}
			if n != 2 {
				return nil, parseErrorf(lineNo, "malformed qubits header")
			}
			nq, err := strconv.Atoi(f[1])
			if err != nil || nq < 0 {
				return nil, parseErrorf(lineNo, "invalid qubit count %q", f[1])
			}
			if nq > MaxQubits {
				return nil, parseErrorf(lineNo, "qubit count %d exceeds the limit %d", nq, MaxQubits)
			}
			c = New(nq)
			// Every remaining line could be an instruction, and none is
			// shorter than "x 0\n".
			c.Grow(min(strings.Count(s, "\n")+1, (len(s)+1)/4))
			continue
		}
		if c == nil {
			return nil, parseErrorf(lineNo, "instruction before qubits header")
		}
		in, err := parseInstr(&f, n, c.NumQubits(), lineNo)
		if err != nil {
			return nil, err
		}
		c.Append(in)
	}
	if c == nil {
		return nil, &ParseError{Msg: "missing qubits header"}
	}
	return c, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line around runs of white space exactly as
// strings.Fields does (unicode.IsSpace, invalid UTF-8 bytes are not
// space), storing the first maxFields fields in f as substrings of line.
// It returns the total field count.
func splitFields(line string, f *[maxFields]string) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		space, size := asciiSpace[line[i]], 1
		if line[i] >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space:
			if start < 0 {
				start = i
			}
		case start >= 0:
			if n < maxFields {
				f[n] = line[start:i]
			}
			n++
			start = -1
		}
		i += size
	}
	if start >= 0 {
		if n < maxFields {
			f[n] = line[start:]
		}
		n++
	}
	return n
}

// parseInstr validates and decodes one instruction line of n fields, the
// first of them in f. It performs every check NewInstr would panic on —
// arity, operand range, operand distinctness (a two-qubit gate wired back
// onto its own operand, like "cnot 0 0", is a self-cycle, not a gate) —
// as positioned errors.
func parseInstr(f *[maxFields]string, n, numQubits, lineNo int) (Instr, error) {
	kind, ok := kindByName(f[0])
	if !ok {
		return Instr{}, parseErrorf(lineNo, "unknown mnemonic %q", f[0])
	}
	wantOperands := kind.Arity()
	wantFields := 1 + wantOperands
	if kind == CPhase {
		wantFields++
	}
	if n != wantFields {
		return Instr{}, parseErrorf(lineNo, "%s takes %d fields, got %d", f[0], wantFields-1, n-1)
	}
	var in Instr
	in.Kind = kind
	for i := 0; i < wantOperands; i++ {
		q, err := strconv.Atoi(f[1+i])
		if err != nil || q < 0 {
			return Instr{}, parseErrorf(lineNo, "invalid qubit %q", f[1+i])
		}
		if q >= numQubits {
			return Instr{}, parseErrorf(lineNo, "qubit %d outside the declared register [0,%d)", q, numQubits)
		}
		for j := 0; j < i; j++ {
			if int(in.Qubits[j]) == q {
				return Instr{}, parseErrorf(lineNo, "%s operands must be distinct, got %s twice", f[0], f[1+i])
			}
		}
		in.Qubits[i] = int32(q) // q < numQubits <= MaxQubits
	}
	if kind == CPhase {
		angle, err := strconv.ParseFloat(f[n-1], 64)
		if err != nil || math.IsNaN(angle) || math.IsInf(angle, 0) {
			return Instr{}, parseErrorf(lineNo, "invalid angle %q", f[n-1])
		}
		in.Angle = angle
	}
	return in, nil
}

func kindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if kindInfo[k].name == name {
			return k, true
		}
	}
	return 0, false
}
