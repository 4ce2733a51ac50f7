// Command qcirc generates, analyzes, schedules and simulates logical
// quantum circuits in the repository's line-oriented text format — the
// "assembly language" the paper's simulator consumes.
//
// Usage:
//
//	qcirc gen   -kind adder|ripple|qft|qftcomm|shor-stage -n N   emit a circuit to stdout
//	qcirc fmt                                    canonicalize a circuit (stdin to stdout)
//	qcirc parse                                  validate a circuit, print a summary
//	qcirc stats                                  read a circuit, print stats
//	qcirc sched -blocks K                        schedule onto K blocks
//	qcirc sim   -a X -b Y -n N -kind adder       simulate an adder
//
// gen | fmt | parse is the round-trip invariant: gen emits canonical text,
// fmt reproduces it byte for byte, parse accepts it. The format is
// specified in docs/workload-format.md.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/sched"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "gen":
		err = runGen(args)
	case "fmt":
		err = runFmt(args)
	case "parse":
		err = runParse(args)
	case "stats":
		err = runStats(args)
	case "sched":
		err = runSched(args)
	case "sim":
		err = runSim(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qcirc %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: qcirc <gen|fmt|parse|stats|sched|sim> [flags]

  gen   -kind adder|ripple|qft|qftcomm|shor-stage -n N   generate a circuit (text to stdout)
  fmt                                  canonicalize a circuit (stdin to stdout)
  parse                                validate a circuit from stdin, print a summary
  stats                                circuit stats (text from stdin)
  sched -blocks K                      list-schedule stdin onto K blocks
  sim   -kind adder|ripple -n N -a X -b Y   simulate an addition`)
}

// buildCircuit shares the arch kernel registry's vocabulary: qft is the
// pure rotation cascade, qftcomm adds the bit-reversal swap chains,
// shor-stage is the controlled addition of modular exponentiation. ripple
// is qcirc-only (a generator comparison, not an arch workload kind).
func buildCircuit(kind string, n int) (*circuit.Circuit, error) {
	switch kind {
	case "adder":
		return gen.CarryLookahead(n).Circuit, nil
	case "ripple":
		return gen.RippleCarry(n).Circuit, nil
	case "qft":
		return gen.QFT(n, false), nil
	case "qftcomm":
		return gen.QFT(n, true), nil
	case "shor-stage":
		return gen.ControlledCarryLookahead(n).Circuit, nil
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "adder", "circuit kind: adder, ripple, qft, qftcomm, shor-stage")
	n := fs.Int("n", 8, "width in bits/qubits")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := buildCircuit(*kind, *n)
	if err != nil {
		return err
	}
	return circuit.Format(os.Stdout, c)
}

func runFmt(args []string) error {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := circuit.Parse(os.Stdin)
	if err != nil {
		return err
	}
	return circuit.Format(os.Stdout, c)
}

func runParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := circuit.Parse(os.Stdin)
	if err != nil {
		return err
	}
	s := c.Stats()
	fmt.Printf("ok: %d qubits, %d instructions, %d slots serial\n",
		s.Qubits, s.Instructions, s.TotalSlots)
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := circuit.Parse(os.Stdin)
	if err != nil {
		return err
	}
	s := c.Stats()
	d := circuit.BuildDAG(c)
	fmt.Printf("qubits        %d\n", s.Qubits)
	fmt.Printf("instructions  %d\n", s.Instructions)
	fmt.Printf("toffolis      %d\n", s.Toffolis)
	fmt.Printf("two-qubit     %d\n", s.TwoQubit)
	fmt.Printf("single-qubit  %d\n", s.SingleQubit)
	fmt.Printf("total slots   %d\n", s.TotalSlots)
	fmt.Printf("depth (slots) %d\n", d.Depth())
	fmt.Printf("peak parallel %d\n", d.MaxParallelism())
	return nil
}

func runSched(args []string) error {
	fs := flag.NewFlagSet("sched", flag.ExitOnError)
	blocks := fs.Int("blocks", 15, "compute block budget (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := circuit.Parse(os.Stdin)
	if err != nil {
		return err
	}
	d := circuit.BuildDAG(c)
	r := sched.ListSchedule(d, *blocks)
	fmt.Printf("blocks      %d\n", *blocks)
	fmt.Printf("makespan    %d slots (critical path %d)\n", r.MakespanSlots, d.Depth())
	fmt.Printf("utilization %.3f\n", r.Utilization())
	fmt.Printf("knee(2%%)    %d blocks\n", sched.KneeBlocks(d, 0.02))
	return nil
}

func runSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	kind := fs.String("kind", "adder", "adder kind: adder, ripple")
	n := fs.Int("n", 2, "operand width in bits")
	a := fs.Uint64("a", 1, "first operand")
	b := fs.Uint64("b", 2, "second operand")
	seed := fs.Int64("seed", 1, "measurement RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ad *gen.Adder
	switch *kind {
	case "adder":
		ad = gen.CarryLookahead(*n)
	case "ripple":
		ad = gen.RippleCarry(*n)
	default:
		return fmt.Errorf("unknown adder kind %q", *kind)
	}
	if *a >= 1<<uint(*n) || *b >= 1<<uint(*n) {
		return fmt.Errorf("operands must fit in %d bits", *n)
	}
	if ad.Circuit.NumQubits() > 26 {
		return fmt.Errorf("%d qubits exceeds the simulation budget; use a smaller -n", ad.Circuit.NumQubits())
	}
	var input uint64
	for i := 0; i < ad.N; i++ {
		if *a>>uint(i)&1 == 1 {
			input |= 1 << uint(ad.A[i])
		}
		if *b>>uint(i)&1 == 1 {
			input |= 1 << uint(ad.B[i])
		}
	}
	st, err := circuit.Simulate(ad.Circuit, input, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	out, p := st.DominantBasisState()
	var sum uint64
	for i, q := range ad.Sum {
		if out>>uint(q)&1 == 1 {
			sum |= 1 << uint(i)
		}
	}
	fmt.Printf("%d + %d = %d (probability %.6f, %s, %d qubits)\n",
		*a, *b, sum, p, ad.Name, ad.Circuit.NumQubits())
	return nil
}
