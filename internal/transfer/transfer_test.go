package transfer

import (
	"testing"
	"time"

	"repro/internal/ecc"
)

func sec(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

func TestTable3Matrix(t *testing.T) {
	// Every cell of Table 3.
	encs := Encodings()
	want := [4][4]float64{
		{0, 0.6, 0.02, 0.2},
		{1.3, 0, 1.3, 1.5},
		{0.01, 0.5, 0, 0.1},
		{0.4, 0.9, 0.4, 0},
	}
	for i, from := range encs {
		for j, to := range encs {
			got, err := Latency(from, to)
			if err != nil {
				t.Fatal(err)
			}
			if got != sec(want[i][j]) {
				t.Errorf("%v -> %v = %v, want %v s", from, to, got, want[i][j])
			}
		}
	}
}

func TestDiagonalFree(t *testing.T) {
	for _, e := range Encodings() {
		if d := MustLatency(e, e); d != 0 {
			t.Errorf("%v -> %v should be free, got %v", e, e, d)
		}
	}
}

func TestDownwardTransfersCostMore(t *testing.T) {
	// Leaving level 2 requires preparing and verifying the large encoded
	// cat state at the source; Table 3 shows every L2 -> L1 transfer
	// costing more than the corresponding L1 -> L2 direction's reverse
	// within the same code.
	st := Enc(ecc.Steane(), 0) // placeholder; build explicit encodings below
	_ = st
	s1 := Encoding{Code: "[[7,1,3]]", Level: 1}
	s2 := Encoding{Code: "[[7,1,3]]", Level: 2}
	b1 := Encoding{Code: "[[9,1,3]]", Level: 1}
	b2 := Encoding{Code: "[[9,1,3]]", Level: 2}
	if MustLatency(s2, s1) <= MustLatency(s1, s2) {
		t.Error("Steane L2->L1 should cost more than L1->L2")
	}
	if MustLatency(b2, b1) <= MustLatency(b1, b2) {
		t.Error("Bacon-Shor L2->L1 should cost more than L1->L2")
	}
}

func TestSameLevelCrossCodeIsCheap(t *testing.T) {
	s1 := Encoding{Code: "[[7,1,3]]", Level: 1}
	b1 := Encoding{Code: "[[9,1,3]]", Level: 1}
	if MustLatency(s1, b1) > sec(0.05) || MustLatency(b1, s1) > sec(0.05) {
		t.Error("L1 cross-code transfers should be tens of milliseconds")
	}
}

func TestBaconShorRoundTripCheaperThanSteane(t *testing.T) {
	// The hierarchy's per-qubit price: demote to L1 and promote back.
	st := RoundTrip(Encoding{Code: "[[7,1,3]]", Level: 2}, Encoding{Code: "[[7,1,3]]", Level: 1})
	bs := RoundTrip(Encoding{Code: "[[9,1,3]]", Level: 2}, Encoding{Code: "[[9,1,3]]", Level: 1})
	if st != sec(1.9) {
		t.Errorf("Steane round trip = %v, want 1.9s", st)
	}
	if bs != sec(0.5) {
		t.Errorf("Bacon-Shor round trip = %v, want 0.5s", bs)
	}
	if bs >= st {
		t.Error("Bacon-Shor round trip should be cheaper")
	}
}

func TestEncFromCode(t *testing.T) {
	e := Enc(ecc.BaconShor(), 2)
	if e.String() != "9-L2" {
		t.Errorf("label = %q", e.String())
	}
	if Enc(ecc.Steane(), 1).String() != "7-L1" {
		t.Error("Steane label wrong")
	}
}

func TestLatencyUnsupportedEncoding(t *testing.T) {
	if _, err := Latency(Encoding{Code: "[[5,1,3]]", Level: 1}, Encoding{Code: "[[7,1,3]]", Level: 1}); err == nil {
		t.Error("expected error for unsupported code")
	}
	if _, err := Latency(Encoding{Code: "[[7,1,3]]", Level: 3}, Encoding{Code: "[[7,1,3]]", Level: 1}); err == nil {
		t.Error("expected error for unsupported level")
	}
}
