// Package transfer models the code-transfer (code teleportation) networks
// of the CQLA memory hierarchy: the machinery that moves a logical qubit
// between error-correcting codes and concatenation levels without decoding
// it. A correlated ancilla pair is prepared spanning the two encodings via
// a multi-qubit cat state, the data interacts with its equivalently encoded
// half through a transversal CNOT, and measurement recreates the state in
// the destination encoding (Figure 5 of the paper).
//
// The pairwise latencies reproduce Table 3. They are kept as an explicit
// calibrated matrix because the paper publishes them as constants; the
// structural decomposition (cat-state preparation at the slower encoding
// dominates, hence downward transfers from level 2 cost more than upward
// transfers into level 2) is what the accessors expose.
package transfer

import (
	"fmt"
	"time"

	"repro/internal/ecc"
)

// Encoding identifies one side of a transfer: a code at a concatenation
// level.
type Encoding struct {
	Code  string // ecc.Code.Short, e.g. "[[7,1,3]]"
	Level int
}

// String renders the paper's compact labels, e.g. "7-L2".
func (e Encoding) String() string {
	var c string
	switch e.Code {
	case "[[7,1,3]]":
		c = "7"
	case "[[9,1,3]]":
		c = "9"
	default:
		c = e.Code
	}
	return fmt.Sprintf("%s-L%d", c, e.Level)
}

// Enc is a convenience constructor from an ecc.Code.
func Enc(c *ecc.Code, level int) Encoding {
	return Encoding{Code: c.Short, Level: level}
}

// index orders the four encodings as in Table 3: 7-L1, 7-L2, 9-L1, 9-L2.
func index(e Encoding) (int, error) {
	switch e.Code {
	case "[[7,1,3]]":
		switch e.Level {
		case 1:
			return 0, nil
		case 2:
			return 1, nil
		}
	case "[[9,1,3]]":
		switch e.Level {
		case 1:
			return 2, nil
		case 2:
			return 3, nil
		}
	}
	return 0, fmt.Errorf("transfer: unsupported encoding %v", e)
}

// table3 holds Table 3 of the paper in seconds: row = source, column =
// destination, order 7-L1, 7-L2, 9-L1, 9-L2.
var table3 = [4][4]float64{
	{0, 0.6, 0.02, 0.2},
	{1.3, 0, 1.3, 1.5},
	{0.01, 0.5, 0, 0.1},
	{0.4, 0.9, 0.4, 0},
}

// Latency returns the time to teleport one logical qubit from one encoding
// to another. Transfers within the same encoding are free at this
// granularity (ordinary data teleportation handles them and is overlapped
// with error correction).
func Latency(from, to Encoding) (time.Duration, error) {
	i, err := index(from)
	if err != nil {
		return 0, err
	}
	j, err := index(to)
	if err != nil {
		return 0, err
	}
	return time.Duration(table3[i][j] * float64(time.Second)), nil
}

// MustLatency is Latency that panics on unsupported encodings.
func MustLatency(from, to Encoding) time.Duration {
	d, err := Latency(from, to)
	if err != nil {
		panic(err)
	}
	return d
}

// RoundTrip returns the cost of demoting a qubit from `high` to `low` and
// promoting it back — the per-qubit price of running one addition in the
// fast level-1 region.
func RoundTrip(high, low Encoding) time.Duration {
	return MustLatency(high, low) + MustLatency(low, high)
}

// Encodings lists the four encodings of Table 3, in table order.
func Encodings() []Encoding {
	return []Encoding{
		{Code: "[[7,1,3]]", Level: 1},
		{Code: "[[7,1,3]]", Level: 2},
		{Code: "[[9,1,3]]", Level: 1},
		{Code: "[[9,1,3]]", Level: 2},
	}
}
