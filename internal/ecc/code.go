// Package ecc implements the quantum error-correction layer of the CQLA
// reproduction: stabilizer descriptions and minimum-weight syndrome decoding
// for the Steane [[7,1,3]] and Bacon-Shor [[9,1,3]] codes, the
// concatenation-level resource metrics of Table 2 (error-correction time,
// transversal gate time, physical area, qubit counts), the Gottesman
// logical-failure-rate estimate, and a Pauli-frame Monte Carlo error
// injector used to validate the distance-3 claims. One method,
// Code.MonteCarlo, runs every sampler (naive, bit-sliced, rare-event) on
// one shard pool. The exact level-1 rate polynomial, built from the
// decoder's fault weight enumerator, gives the concatenated rates by
// iteration and the pseudo-threshold (PseudoThresholdX) as its fixed
// point; the tests use it as the oracle for every sampled estimate.
//
// Each code — check matrices, logical operators, resource profile and
// minimum-weight decoder tables — is built once per process, on the first
// Steane() or BaconShor() call, and every call returns that one *Code. It
// is read-only: no caller may write its exported fields.
package ecc

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/gf2"
)

// Code is a CSS stabilizer code [[n, k, d]] together with the timing and
// layout profile the CQLA architecture model needs.
//
// Conventions: HZ rows are supports of Z-type stabilizer generators (they
// detect X errors: syndrome = HZ·e for an X-error support vector e). HX rows
// are supports of X-type generators (they detect Z errors). LZ is the
// support of a Z-type logical operator; a residual X-error is a logical
// fault exactly when it anticommutes with LZ (odd overlap). Symmetrically
// for LX and Z errors.
type Code struct {
	// Name identifies the code in reports, e.g. "Steane [[7,1,3]]".
	Name string
	// Short is the compact label used in the paper's tables, e.g. "[[7,1,3]]".
	Short string

	N, K, D int

	HX, HZ *gf2.Matrix
	LX, LZ gf2.Vec

	profile resourceProfile

	// bitX decodes X errors against HZ and LZ. It is built with the code,
	// once per process, and is read-only. Every Monte Carlo estimator
	// injects X errors, so no Z-error decoder is built.
	bitX *bitDecoder
}

// bitDecoder is the decoding engine for one error type: the parity-check
// rows, the total syndrome->correction table and the logical operator are
// all packed into uint64 masks at construction, so one decode is a handful
// of popcounts and a table index — no vectors, no map lookups, no
// allocations. Every code this package builds has at most
// maxDecoderQubits physical qubits, well inside one word.
type bitDecoder struct {
	rows    []uint64 // check-matrix rows as bit masks
	table   []uint64 // dense syndrome -> minimum-weight correction mask
	logical uint64   // support of the logical operator the residual must commute with

	// flipBits is the whole syndrome->fault-flip function as one truth
	// table: bit s = parity(table[s] & logical), i.e. whether the
	// correction for syndrome s flips the error's parity against the
	// logical operator. With at most mcMaxSyndromeBits rows it fits one
	// word.
	flipBits uint64
	// flipANF is the same function in algebraic normal form, its Möbius
	// transform (anf): bit m is set when the monomial AND of the syndrome
	// bits in mask m appears in the XOR. The bit-sliced batch engine
	// (bitslice.go) evaluates it across 64 trials per operation without
	// touching the table (flipLane). Bacon-Shor's flip function is six
	// monomials of at most two syndrome bits.
	flipANF uint64

	// faults is the fault weight enumerator: faults[k] of the C(n,k)
	// weight-k error patterns decode to a logical fault. It is the exact
	// level-1 logical rate polynomial (weightHist.rate), recorded by the
	// one-time build once the table is complete.
	faults weightHist
	// faultSet is the whole mask->fault function as a bitset: bit e is
	// set when the error mask e decodes to a logical fault (2^n bits, so
	// 16 B for Steane and 64 B for Bacon-Shor). The naive sampler decodes
	// by one lookup into it.
	faultSet []uint64
}

// maxDecoderQubits caps the physical qubits a decoder enumerates: building
// the table walks all 2^n error patterns.
const maxDecoderQubits = 20

// newBitDecoder builds the minimum-weight decoder for the check matrix h
// and the logical operator the residual must commute with. One pass over
// every error pattern in increasing mask order keeps, per syndrome, the
// lightest pattern seen, replacing it only when strictly lighter — so ties
// resolve to the lowest mask. The table must be total over achievable
// syndromes (rank(h) can equal the row count, as for Bacon-Shor's six
// Z-generators, where some syndromes require weight-3 corrections). A
// second pass over the finished table records the fault weight
// enumerator and the fault bitset.
func newBitDecoder(h *gf2.Matrix, logical gf2.Vec) *bitDecoder {
	n := h.Cols()
	if n > maxDecoderQubits {
		panic(fmt.Sprintf("ecc: lookup decoding supports at most %d physical qubits", maxDecoderQubits))
	}
	d := &bitDecoder{rows: make([]uint64, h.Rows()), logical: logical.Uint64()}
	for i := range d.rows {
		d.rows[i] = h.Row(i).Uint64()
	}
	// Unachievable syndromes stay zero in the dense table; they cannot be
	// produced by any error pattern, so the hot path never indexes them.
	// seen marks the syndromes some pattern has already reached, so the
	// first pattern to reach one replaces the zero placeholder.
	d.table = make([]uint64, 1<<uint(len(d.rows)))
	seen := make([]bool, len(d.table))
	for e := uint64(0); e < 1<<uint(n); e++ {
		s := d.syndromeBits(e)
		if !seen[s] || bits.OnesCount64(e) < bits.OnesCount64(d.table[s]) {
			d.table[s], seen[s] = e, true
		}
	}
	if d.batchOK() {
		for s, cor := range d.table {
			d.flipBits |= uint64(bits.OnesCount64(cor&d.logical)&1) << uint(s)
		}
		d.flipANF = anf(d.flipBits, len(d.rows))
	}
	d.faultSet = make([]uint64, (1<<uint(n)+63)/64)
	for e := uint64(0); e < 1<<uint(n); e++ {
		if d.fault(e) {
			d.faults[bits.OnesCount64(e)]++
			d.faultSet[e>>6] |= 1 << (e & 63)
		}
	}
	return d
}

// syndromeBits computes the packed syndrome of the error mask e.
//
//cqla:noalloc
func (d *bitDecoder) syndromeBits(e uint64) uint64 {
	var s uint64
	for i, r := range d.rows {
		s |= uint64(bits.OnesCount64(e&r)&1) << uint(i)
	}
	return s
}

// correct decodes the error mask e and returns the residual after applying
// the minimum-weight correction, plus whether that residual is a logical
// fault (anticommutes with the logical operator).
//
//cqla:noalloc
func (d *bitDecoder) correct(e uint64) (residual uint64, logicalFault bool) {
	r := e ^ d.table[d.syndromeBits(e)]
	return r, bits.OnesCount64(r&d.logical)&1 == 1
}

// fault decodes the error mask e and reports whether the residual after
// applying the minimum-weight correction is a logical fault.
//
//cqla:noalloc
func (d *bitDecoder) fault(e uint64) bool {
	_, f := d.correct(e)
	return f
}

// resourceProfile carries the code-specific constants of the CQLA timing and
// area model. Each constant is calibrated so that Metrics reproduces Table 2
// of the paper under the projected physical parameters; the breakdown
// reflects the structural reasons one code beats the other (Bacon-Shor's
// syndrome extraction needs no ancilla verification, hence the much smaller
// cycle count).
type resourceProfile struct {
	// syndromeCycles breaks one level-1 syndrome extraction into phases,
	// measured in fundamental clock cycles.
	syndromeCycles syndromePhases

	// upperECSteps is the number of serialized level-(L-1) logical gate
	// times that one level-L syndrome extraction occupies (ancilla block
	// preparation, transversal interaction and measurement expressed in
	// lower-level logical operations).
	upperECSteps int

	// upperGateSteps is the number of level-(L-1) logical gate times that
	// the interaction portion of one level-L transversal gate occupies
	// (shuttling the partner block in, 7 or 9 pairwise couplings, shuttling
	// out).
	upperGateSteps int

	// ancillaL1 is the number of physical ancilla ions accompanying a
	// level-1 logical qubit sized for maximum-speed error correction.
	ancillaL1 int

	// ancillaGrowth determines ancilla counts at higher levels; see
	// AncillaIons for the per-code closed forms.
	ancillaGrowth int

	// layoutFactor converts summed trapping-region area into realized
	// layout area (access channels, junction sharing, dead space).
	layoutFactor float64

	// threshold is the fault-tolerance threshold failure rate for this
	// code accounting for movement and gates (Steane value from Svore,
	// Terhal & DiVincenzo; the Bacon-Shor value reflects its reported
	// higher threshold).
	threshold float64

	// channelsRequired is the interconnect bandwidth, in channels, needed
	// to fully overlap communication with error correction (1 for Steane,
	// 3 for Bacon-Shor; Section 5.1 of the paper).
	channelsRequired int
}

// syndromePhases decomposes a level-1 syndrome extraction into its phases,
// in fundamental cycles. Total() is the per-syndrome cycle count; a full EC
// round extracts both a bit-flip and a phase-flip syndrome.
type syndromePhases struct {
	Prepare  int // encode the ancilla block into the logical |0>/|+> state
	Verify   int // verify the ancilla (zero for Bacon-Shor)
	Interact int // transversal CNOTs between data and ancilla
	Measure  int // read out the ancilla block
	Shuttle  int // ballistic transport between data and ancilla regions
}

// Total returns the cycle count of one syndrome extraction.
func (s syndromePhases) Total() int {
	return s.Prepare + s.Verify + s.Interact + s.Measure + s.Shuttle
}

// Steane returns the Steane [[7,1,3]] code: the smallest CSS code with
// transversal implementations of every gate used in concatenated error
// correction. Its check matrices are the Hamming(7,4) parity checks and its
// logical operators act on all seven qubits. Every call returns the same
// process-wide, read-only *Code.
func Steane() *Code { return steaneCode() }

// BaconShor returns the [[9,1,3]] code in its gauge-fixed (Shor) stabilizer
// presentation: six weight-2 Z-type generators (adjacent pairs within each
// row of the 3x3 qubit grid) and two weight-6 X-type generators (adjacent
// row pairs). The subsystem structure is what makes its error correction
// cheap — syndrome extraction needs only weight-2 gauge measurements and no
// ancilla verification — and the resource profile reflects that. Every
// call returns the same process-wide, read-only *Code.
func BaconShor() *Code { return baconShorCode() }

var (
	steaneCode    = sync.OnceValue(func() *Code { return withDecoder(steane()) })
	baconShorCode = sync.OnceValue(func() *Code { return withDecoder(baconShor()) })
)

// withDecoder builds the code's X-error decoder from its Z-type check
// matrix and logical operator.
func withDecoder(c *Code) *Code {
	c.bitX = newBitDecoder(c.HZ, c.LZ)
	return c
}

// steane builds the Steane code's exported fields and resource profile,
// without a decoder.
func steane() *Code {
	h := gf2.MustMatrix(
		"1010101",
		"0110011",
		"0001111",
	)
	all := gf2.VecFromBits([]int{1, 1, 1, 1, 1, 1, 1})
	return &Code{
		Name:  "Steane [[7,1,3]]",
		Short: "[[7,1,3]]",
		N:     7, K: 1, D: 3,
		HX: h,
		HZ: h,
		LX: all,
		LZ: all,
		profile: resourceProfile{
			// 155 cycles/syndrome -> 2x155x10µs = 3.1 ms level-1 EC (Table 2).
			syndromeCycles: syndromePhases{
				Prepare: 30, Verify: 40, Interact: 14, Measure: 1, Shuttle: 70,
			},
			upperECSteps:     24, // EC(2) = 2x24xTG(1) = 0.2976 s ~ 0.3 s
			upperGateSteps:   32, // TG(2) = 32xTG(1) + EC(2) ~ 0.5 s
			ancillaL1:        21,
			ancillaGrowth:    21,
			layoutFactor:     2.8,
			threshold:        7.5e-5,
			channelsRequired: 1,
		},
	}
}

// baconShor builds the Bacon-Shor code's exported fields and resource
// profile, without a decoder.
func baconShor() *Code {
	hz := gf2.MustMatrix(
		"110000000",
		"011000000",
		"000110000",
		"000011000",
		"000000110",
		"000000011",
	)
	hx := gf2.MustMatrix(
		"111111000",
		"000111111",
	)
	return &Code{
		Name:  "Bacon-Shor [[9,1,3]]",
		Short: "[[9,1,3]]",
		N:     9, K: 1, D: 3,
		HX: hx,
		HZ: hz,
		// Logical X is Z-type for the Shor code (one Z per row);
		// logical Z is X-type (X across the first row). What the decoder
		// needs is the support of the operator X errors must commute
		// with: LZ's.
		LZ: gf2.VecFromBits([]int{1, 0, 0, 1, 0, 0, 1, 0, 0}),
		LX: gf2.VecFromBits([]int{1, 1, 1, 0, 0, 0, 0, 0, 0}),
		profile: resourceProfile{
			// 60 cycles/syndrome -> 2x60x10µs = 1.2 ms level-1 EC. No
			// verification phase: Bacon-Shor syndrome extraction uses bare
			// two-qubit gauge measurements.
			syndromeCycles: syndromePhases{
				Prepare: 12, Verify: 0, Interact: 18, Measure: 1, Shuttle: 29,
			},
			upperECSteps:     21, // EC(2) = 2x21xTG(1) = 0.1008 s ~ 0.1 s
			upperGateSteps:   42, // TG(2) = 42xTG(1) + EC(2) ~ 0.2 s
			ancillaL1:        12,
			ancillaGrowth:    18, // total ions scale x18 per level
			layoutFactor:     2.5,
			threshold:        1.25e-4,
			channelsRequired: 3,
		},
	}
}

// Codes returns the two codes the paper evaluates, Steane first.
func Codes() []*Code {
	return []*Code{Steane(), BaconShor()}
}

// Validate checks the internal consistency of the stabilizer data: CSS
// commutation between X- and Z-type generators, generator independence,
// logical operators commuting with all stabilizers while anticommuting with
// each other, and N-K independent generators in total.
func (c *Code) Validate() error {
	if c.HX.Cols() != c.N || c.HZ.Cols() != c.N {
		return fmt.Errorf("ecc: %s check matrices have wrong width", c.Name)
	}
	for i := 0; i < c.HX.Rows(); i++ {
		for j := 0; j < c.HZ.Rows(); j++ {
			if c.HX.Row(i).Dot(c.HZ.Row(j)) {
				return fmt.Errorf("ecc: %s X-generator %d anticommutes with Z-generator %d", c.Name, i, j)
			}
		}
	}
	if got, want := c.HX.Rank()+c.HZ.Rank(), c.N-c.K; got != want {
		return fmt.Errorf("ecc: %s has %d independent generators, want %d", c.Name, got, want)
	}
	for i := 0; i < c.HZ.Rows(); i++ {
		if c.HZ.Row(i).Dot(c.LX) {
			return fmt.Errorf("ecc: %s logical X anticommutes with Z-generator %d", c.Name, i)
		}
	}
	for i := 0; i < c.HX.Rows(); i++ {
		if c.HX.Row(i).Dot(c.LZ) {
			return fmt.Errorf("ecc: %s logical Z anticommutes with X-generator %d", c.Name, i)
		}
	}
	if !c.LX.Dot(c.LZ) {
		return fmt.Errorf("ecc: %s logical X and Z commute; they must anticommute", c.Name)
	}
	return nil
}

// Threshold returns the fault-tolerance threshold failure rate assumed for
// this code.
func (c *Code) Threshold() float64 { return c.profile.threshold }

// ChannelsRequired returns the interconnect bandwidth, in channels, needed
// to overlap this code's communication with its error correction.
func (c *Code) ChannelsRequired() int { return c.profile.channelsRequired }
