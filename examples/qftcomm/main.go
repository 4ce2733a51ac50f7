// QFT communication: the stress test for the CQLA's interconnect. The
// quantum Fourier transform needs all-to-all personalized communication but
// only cheap one- and two-qubit gates, so it probes the architecture where
// the adder does not. This example validates a small QFT functionally,
// then scales the communication analysis: transport times, purification,
// mesh all-to-all costs, and the computation/communication balance of
// Figure 8(b).
//
// Run with: go run ./examples/qftcomm
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/ecc"
	"repro/internal/gen"
	"repro/internal/mesh"
	"repro/internal/phys"
)

func main() {
	p := phys.Projected()
	bs := ecc.BaconShor()

	// 1. Functional check: QFT then inverse QFT is the identity.
	n := 6
	round := circuit.New(n)
	round.AppendAll(gen.QFT(n, true))
	round.AppendAll(gen.InverseQFT(n, true))
	state, err := circuit.Simulate(round, 0b101101, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QFT·QFT⁻¹ on |101101⟩: P(identity) = %.6f\n\n", state.Probability(0b101101))

	// 2. What one logical transport costs, and why it is distance-free.
	fmt.Println("logical qubit transport (teleportation through repeater islands):")
	for _, level := range []int{1, 2} {
		fmt.Printf("  level %d: %.3g s per hop-independent transport\n",
			level, mesh.TransportTime(bs, level, p).Seconds())
	}
	fmt.Printf("  EPR purification: fidelity 0.90 -> %.4f after one round; %d rounds reach 0.999\n\n",
		mesh.PurifyFidelity(0.90), mesh.PurificationRounds(0.90, 0.999))

	// 3. All-to-all on the mesh.
	fmt.Println("all-to-all personalized communication on the mesh (level 2):")
	for _, q := range []int{64, 256, 1024} {
		m := mesh.NewMeshFor(q)
		fmt.Printf("  %4d qubits on a %dx%d mesh: %6.0f s (bisection %d links)\n",
			q, m.Rows, m.Cols, mesh.AllToAllTime(q, bs, 2, p).Seconds(), m.Bisection())
	}

	// 4. Figure 8(b): the QFT's computation/communication balance.
	am, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithParams(p))
	if err != nil {
		log.Fatal(err)
	}
	machine := am.Analytic()
	fmt.Println("\nQFT computation vs communication (Figure 8b):")
	fmt.Printf("  %-8s %-14s %-14s %-8s\n", "size", "compute (s)", "comm (s)", "ratio")
	for _, q := range []int{100, 250, 500, 1000} {
		t := machine.QFTTimes(q)
		fmt.Printf("  %-8d %-14.0f %-14.0f %.2f\n",
			q, t.Computation.Seconds(), t.Communication.Seconds(),
			float64(t.Communication)/float64(t.Computation))
	}
	fmt.Println("\ncommunication tracks computation but never dominates: the CQLA has no memory wall.")
}
