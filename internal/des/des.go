// Package des is a discrete-event simulator for the CQLA executing a
// logical circuit. Where internal/sched computes idealized makespans, des
// models the machine's resources explicitly: compute blocks execute
// instructions, teleportation channels move operands from memory into the
// compute region, and a bounded residency set (compute blocks plus cache)
// evicts cold qubits back to memory. It measures how much communication
// actually hides beneath error-correction-dominated computation — the
// paper's "quantum computers do not suffer from the memory wall" claim.
//
// The simulator is built for the hot path: the event queue is one pre-sized
// FIFO lane per distinct event duration, each already in time order, so
// the next event is the least of a few lane heads; the residency
// set is an intrusive array-backed LRU list, and every per-instruction and
// per-qubit table is allocated once up front, so a run's allocation cost is
// a fixed setup independent of how many events it processes.
package des

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
)

// Config describes the machine the circuit runs on.
type Config struct {
	// Blocks is the number of compute blocks (concurrent instructions).
	Blocks int
	// Channels is the number of teleportation channels into the compute
	// region (concurrent operand transports).
	Channels int
	// ResidentQubits is the logical-qubit capacity of the compute region
	// plus cache; beyond it, least-recently-used qubits are evicted to
	// memory and must be re-fetched.
	ResidentQubits int
	// SlotTime is the duration of one two-qubit-gate slot (the error
	// correction following each logical gate).
	SlotTime time.Duration
	// TransportTime is the duration of one logical-qubit teleport between
	// memory and the compute region.
	TransportTime time.Duration
}

// Stats reports the simulated execution.
type Stats struct {
	Makespan    time.Duration
	ComputeBusy time.Duration // summed instruction execution time
	Transports  int           // operand fetches from memory
	// TransportBusy is the summed channel occupancy.
	TransportBusy time.Duration
	// StallTime integrates (over time) the number of instructions that
	// were dependency-ready with a free block available but waiting on
	// operand transport.
	StallTime time.Duration
	// BlockUtilization is ComputeBusy / (Blocks x Makespan).
	BlockUtilization float64
	// ChannelUtilization is TransportBusy / (Channels x Makespan).
	ChannelUtilization float64
}

type eventKind int

const (
	evInstrDone eventKind = iota
	evFetchDone
)

type event struct {
	at   time.Duration
	kind eventKind
	id   int // instruction index or fetched qubit
	seq  int // tiebreaker for determinism
}

// eventLess orders events by time with the sequence number breaking ties —
// a total order, so the pop sequence (and with it every statistic) is
// independent of how the pending events are stored.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// residency tracks which logical qubits are inside the compute region,
// with LRU eviction over unpinned qubits. Qubit ids index directly into
// the intrusive prev/next arrays, so membership tests, touches and
// evictions run without hashing or node allocation.
type residency struct {
	capacity   int
	size       int
	head, tail int // most- and least-recently-used resident qubit, -1 if empty
	prev, next []int32
	resident   []bool
	pins       []int32
}

func newResidency(capacity, numQubits int) *residency {
	return &residency{
		capacity: capacity,
		head:     -1,
		tail:     -1,
		prev:     make([]int32, numQubits),
		next:     make([]int32, numQubits),
		resident: make([]bool, numQubits),
		pins:     make([]int32, numQubits),
	}
}

func (r *residency) contains(q int) bool { return r.resident[q] }

func (r *residency) unlink(q int) {
	p, n := r.prev[q], r.next[q]
	if p >= 0 {
		r.next[p] = n
	} else {
		r.head = int(n)
	}
	if n >= 0 {
		r.prev[n] = p
	} else {
		r.tail = int(p)
	}
	r.resident[q] = false
	r.size--
}

func (r *residency) pushFront(q int) {
	r.prev[q] = -1
	r.next[q] = int32(r.head)
	if r.head >= 0 {
		r.prev[r.head] = int32(q)
	} else {
		r.tail = q
	}
	r.head = q
	r.resident[q] = true
	r.size++
}

func (r *residency) touch(q int) {
	if r.resident[q] && r.head != q {
		r.unlink(q)
		r.pushFront(q)
	}
}

// admit inserts q, evicting the LRU unpinned qubit if over capacity. It
// reports false when no eviction candidate exists (capacity exhausted by
// pinned qubits) — the caller must retry after pins release.
func (r *residency) admit(q int) bool {
	if r.resident[q] {
		r.touch(q)
		return true
	}
	for r.size >= r.capacity {
		victim := -1
		for v := r.tail; v >= 0; v = int(r.prev[v]) {
			if r.pins[v] == 0 {
				victim = v
				break
			}
		}
		if victim < 0 {
			return false
		}
		r.unlink(victim)
	}
	r.pushFront(q)
	return true
}

func (r *residency) pin(q int)   { r.pins[q]++ }
func (r *residency) unpin(q int) { r.pins[q]-- }

// Validate reports whether the machine can run a circuit: at least one
// block and one channel, room for a Toffoli's three operands, a positive
// slot time and a non-negative transport time.
func (cfg Config) Validate() error {
	if cfg.Blocks < 1 || cfg.Channels < 1 {
		return fmt.Errorf("des: need at least one block and one channel")
	}
	if cfg.ResidentQubits < 3 {
		return fmt.Errorf("des: residency capacity %d cannot hold a Toffoli's operands", cfg.ResidentQubits)
	}
	if cfg.SlotTime <= 0 || cfg.TransportTime < 0 {
		return fmt.Errorf("des: invalid timing %v/%v", cfg.SlotTime, cfg.TransportTime)
	}
	return nil
}

// RunDAG simulates a circuit whose dependency DAG the caller has already
// built, avoiding a rebuild when the same DAG also feeds other analyses
// (the arch des engine schedules the identical DAG for its compute-only
// lower bound). It builds a single-use Runner; callers replaying the same
// DAG many times should hold a Runner and call Run directly, which
// amortizes the arena to zero steady-state allocations.
func RunDAG(ctx context.Context, d *circuit.DAG, cfg Config) (Stats, error) {
	r, err := NewRunner(d, cfg)
	if err != nil {
		return Stats{}, err
	}
	return r.Run(ctx)
}

// utilization returns busy / (units × span) computed entirely in float64:
// forming the denominator in int truncates time.Duration to 32 bits on
// 32-bit platforms and overflows int64 once units × span passes ~2⁶³ ns,
// both of which long simulations on many blocks can reach.
func utilization(busy time.Duration, units int, span time.Duration) float64 {
	if units <= 0 || span <= 0 {
		return 0
	}
	return busy.Seconds() / (float64(units) * span.Seconds())
}

// CommunicationHidden returns the fraction of transport time that did not
// extend the makespan beyond the compute-only lower bound: 1 means
// communication fully overlapped with computation.
func CommunicationHidden(s Stats, computeOnly time.Duration) float64 {
	if s.TransportBusy == 0 {
		return 1
	}
	exposed := s.Makespan - computeOnly
	if exposed < 0 {
		exposed = 0
	}
	if exposed >= s.TransportBusy {
		return 0
	}
	return 1 - float64(exposed)/float64(s.TransportBusy)
}
