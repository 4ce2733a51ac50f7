// Package gen generates the logical circuits the CQLA study schedules: the
// Draper carry-lookahead adder (the kernel of Shor's modular
// exponentiation), a CDKM ripple-carry adder used as an ablation baseline,
// the quantum Fourier transform, and the modular-exponentiation composition
// model. Every generator is validated functionally against the dense
// state-vector simulator in the package tests.
package gen

import (
	"fmt"

	"repro/internal/circuit"
)

// Adder bundles a generated addition circuit with its register layout, so
// callers (tests, examples, the architecture model) can set inputs and read
// outputs by logical qubit index.
type Adder struct {
	// Name identifies the construction ("carry-lookahead", "ripple-carry").
	Name string
	// N is the operand width in bits.
	N int
	// A and B are the qubit indices of the input registers, least
	// significant bit first. For in-place adders the sum replaces B.
	A, B []int
	// Sum is the qubit indices of the (n+1)-bit result, least significant
	// first. For in-place adders Sum aliases B plus the carry-out qubit.
	Sum []int
	// Ancilla lists every ancilla qubit; all must return to |0⟩.
	Ancilla []int
	// Circuit is the generated instruction sequence.
	Circuit *circuit.Circuit
}

// claNode is one segment-tree node of the Brent-Kung style carry-lookahead
// network: it owns the qubits holding the carry-generate (G) and
// carry-propagate (P) of its bit span.
type claNode struct {
	lo, hi      int
	g, p        int
	left, right *claNode
	cmid        int // carry qubit feeding the right child's span, -1 at leaves
}

// CarryLookahead generates an out-of-place Draper-style carry-lookahead
// adder: Sum = A + B with A and B preserved and all ancilla returned to
// |0⟩. Carries are computed by a logarithmic-depth tree of Toffoli gates
// over (generate, propagate) pairs — the construction whose limited
// parallelism motivates the CQLA's small number of compute blocks — then
// uncomputed by the mirrored network.
//
// Resource shape: 8n-2 qubits, 8n-6 Toffoli gates, O(log n) Toffoli depth.
func CarryLookahead(n int) *Adder {
	if n < 1 {
		panic(fmt.Sprintf("gen: adder width %d < 1", n))
	}
	next := 0
	alloc := func(k int) []int {
		r := make([]int, k)
		for i := range r {
			r[i] = next
			next++
		}
		return r
	}
	a := alloc(n)
	b := alloc(n)
	sum := alloc(n + 1)
	p := alloc(n)
	g := alloc(n)

	// The tree has n-1 internal nodes, each allocating a (G, P) pair on the
	// up-sweep and a carry on the down-sweep: 3(n-1) ancilla beyond p and g.
	ancilla := make([]int, 0, 2*n+3*(n-1))
	ancilla = append(ancilla, p...)
	ancilla = append(ancilla, g...)
	allocOne := func() int {
		q := next
		next++
		ancilla = append(ancilla, q)
		return q
	}
	// Every node of the 2n-1 node tree lives in one backing array, which
	// never regrows, so the node pointers stay valid.
	nodes := make([]claNode, 0, 2*n-1)
	newNode := func(v claNode) *claNode {
		nodes = append(nodes, v)
		return &nodes[len(nodes)-1]
	}

	// Phase circuits; the uncompute phases are their reverses (every gate
	// involved is self-inverse). Each reserves its gate count: 3 per bit
	// for gp; per internal node, 3 on the up-sweep and at most 2 on the
	// down-sweep; 2n for the sums (n-1 bits have a carry in, plus the
	// carry out).
	gp := circuit.New(0) // generate/propagate computation
	gp.Grow(3 * n)
	sweep := circuit.New(0) // tree up-sweep + carry down-sweep
	sweep.Grow(5 * (n - 1))
	sums := circuit.New(0) // CNOTs into the sum register (not uncomputed)
	sums.Grow(2 * n)

	for i := 0; i < n; i++ {
		gp.AddCNOT(a[i], p[i])
		gp.AddCNOT(b[i], p[i])
		gp.AddToffoli(a[i], b[i], g[i])
	}

	// Up-sweep: combine child (G,P) spans bottom-up.
	//   G[lo,hi) = G_right XOR P_right·G_left
	//   P[lo,hi) = P_right·P_left
	var build func(lo, hi int) *claNode
	build = func(lo, hi int) *claNode {
		if hi-lo == 1 {
			return newNode(claNode{lo: lo, hi: hi, g: g[lo], p: p[lo], cmid: -1})
		}
		mid := lo + (hi-lo+1)/2
		left := build(lo, mid)
		right := build(mid, hi)
		node := newNode(claNode{lo: lo, hi: hi, left: left, right: right, cmid: -1})
		node.g = allocOne()
		node.p = allocOne()
		sweep.AddToffoli(right.p, left.g, node.g)
		sweep.AddCNOT(right.g, node.g)
		sweep.AddToffoli(right.p, left.p, node.p)
		return node
	}
	root := build(0, n)

	// Down-sweep: distribute carries top-down. A node whose span starts at
	// lo receives the carry into bit lo (carryIn = -1 encodes the zero
	// carry into bit 0); the carry into the right child's span is
	//   c[mid] = G_left XOR P_left·carryIn.
	carryInto := make([]int, n) // qubit holding carry into bit i, -1 for zero
	var down func(node *claNode, carryIn int)
	down = func(node *claNode, carryIn int) {
		if node.left == nil {
			carryInto[node.lo] = carryIn
			return
		}
		cmid := allocOne()
		node.cmid = cmid
		sweep.AddCNOT(node.left.g, cmid)
		if carryIn >= 0 {
			sweep.AddToffoli(node.left.p, carryIn, cmid)
		}
		down(node.left, carryIn)
		down(node.right, cmid)
	}
	down(root, -1)

	// Sum: s[i] = p[i] XOR c[i]; the carry out of the whole register is the
	// root's generate (its carry-in is zero).
	for i := 0; i < n; i++ {
		sums.AddCNOT(p[i], sum[i])
		if carryInto[i] >= 0 {
			sums.AddCNOT(carryInto[i], sum[i])
		}
	}
	sums.AddCNOT(root.g, sum[n])

	c := circuit.New(next)
	c.Grow(2*gp.Len() + 2*sweep.Len() + sums.Len())
	c.AppendAll(gp)
	c.AppendAll(sweep)
	c.AppendAll(sums)
	c.AppendAll(sweep.Reversed())
	c.AppendAll(gp.Reversed())

	return &Adder{
		Name:    "carry-lookahead",
		N:       n,
		A:       a,
		B:       b,
		Sum:     sum,
		Ancilla: ancilla,
		Circuit: c,
	}
}

// RippleCarry generates the CDKM in-place ripple-carry adder
// (Cuccaro-Draper-Kutin-Moulton): B <- A + B using a single ancilla and a
// carry-out qubit, with 2n Toffolis on an O(n)-depth chain. It is the
// serial baseline against which the lookahead adder's parallelism is
// ablated.
func RippleCarry(n int) *Adder {
	if n < 1 {
		panic(fmt.Sprintf("gen: adder width %d < 1", n))
	}
	next := 0
	alloc := func(k int) []int {
		r := make([]int, k)
		for i := range r {
			r[i] = next
			next++
		}
		return r
	}
	a := alloc(n)
	b := alloc(n)
	carryIn := next // scratch ancilla, returns to |0⟩
	next++
	carryOut := next
	next++

	c := circuit.New(next)
	c.Grow(6*n + 1) // n MAJ and n UMA blocks of 3 gates, and the carry-out CNOT
	maj := func(x, y, z int) {
		c.AddCNOT(z, y)
		c.AddCNOT(z, x)
		c.AddToffoli(x, y, z)
	}
	uma := func(x, y, z int) {
		c.AddToffoli(x, y, z)
		c.AddCNOT(z, x)
		c.AddCNOT(x, y)
	}

	maj(carryIn, b[0], a[0])
	for i := 1; i < n; i++ {
		maj(a[i-1], b[i], a[i])
	}
	c.AddCNOT(a[n-1], carryOut)
	for i := n - 1; i >= 1; i-- {
		uma(a[i-1], b[i], a[i])
	}
	uma(carryIn, b[0], a[0])

	sum := make([]int, 0, n+1)
	sum = append(sum, b...)
	sum = append(sum, carryOut)
	return &Adder{
		Name:    "ripple-carry",
		N:       n,
		A:       a,
		B:       b,
		Sum:     sum,
		Ancilla: []int{carryIn},
		Circuit: c,
	}
}
