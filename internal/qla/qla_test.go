package qla

import (
	"testing"
	"time"

	"repro/internal/phys"
)

func TestBaselineIdentity(t *testing.T) {
	m := NewWith(phys.Projected())
	if m.Code.Short != "[[7,1,3]]" || m.Level != 2 {
		t.Errorf("baseline should be Steane at level 2, got %s L%d", m.Code.Short, m.Level)
	}
}

func TestSlotTimeIsLevel2EC(t *testing.T) {
	m := NewWith(phys.Projected())
	want := m.Code.ECTime(2, m.Params)
	if m.SlotTime() != want {
		t.Errorf("slot time %v, want %v", m.SlotTime(), want)
	}
	// ~0.3 s per slot with projected parameters.
	if s := m.SlotTime().Seconds(); s < 0.25 || s > 0.35 {
		t.Errorf("slot time = %g s, expected ~0.3", s)
	}
}

func TestAreaScalesLinearly(t *testing.T) {
	m := NewWith(phys.Projected())
	a1 := m.AreaMM2(100)
	a2 := m.AreaMM2(200)
	if a2 != 2*a1 {
		t.Errorf("area not linear: %g vs %g", a1, a2)
	}
	// One tile = 3 logical qubits x 3.4 mm² x interconnect factor.
	tile := m.TileAreaMM2()
	if tile < 30 || tile > 40 {
		t.Errorf("tile area = %g mm², expected ~36", tile)
	}
}

func TestQLAFactorsOneSquareMeter(t *testing.T) {
	// The paper's motivating number: ~1 m² to factor a 1024-bit number.
	// With Q = 5n+3 logical qubits the homogeneous QLA floorplan lands at
	// that order of magnitude.
	m := NewWith(phys.Projected())
	area := m.AreaMM2(5*1024 + 3)
	square := area / 1e6 // m²
	if square < 0.1 || square > 1.0 {
		t.Errorf("1024-bit QLA area = %.3f m², expected a few tenths", square)
	}
}

func TestAdderTime(t *testing.T) {
	m := NewWith(phys.Projected())
	if got := m.AdderTime(100); got != 100*m.SlotTime() {
		t.Errorf("adder time = %v", got)
	}
	if m.AdderTime(0) != time.Duration(0) {
		t.Error("zero depth should take zero time")
	}
}
