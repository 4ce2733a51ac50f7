// Package cache simulates the CQLA's quantum qubit cache: the level-1
// staging tier between the slow level-2 memory and the fast level-1 compute
// region. The simulator replays a logical instruction stream (the Draper
// adder, in the paper) against an LRU cache of logical qubits and measures
// the operand hit rate under two instruction-fetch policies:
//
//   - Naive: instructions issue in program order.
//   - Optimized: because scheduling is static, the fetch window is the
//     whole program; the simulator builds the dependency list and always
//     issues the ready instruction whose operands are already cached
//     (Section 5.2: this raises the hit rate from ~20% to ~85%).
//
// Replacement is least-recently-used, as in the paper. The LRU is dense:
// circuit.Append keeps every operand below NumQubits, so recency is an
// intrusive list over qubit indices and residency a bitmap. The optimized
// fetch never rescans the ready set: circuit.DAG serializes every pair of
// instructions sharing a qubit, so at most one ready instruction touches
// any qubit, and an eviction changes the cached-operand count of at most
// one ready instruction — one heap update. A replay of N instructions
// costs O(N log N).
package cache

import (
	"fmt"

	"repro/internal/circuit"
)

// Policy selects the instruction fetch strategy.
type Policy int

const (
	// Naive issues instructions in program order.
	Naive Policy = iota
	// Optimized issues ready instructions in operand-affinity order.
	Optimized
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Naive:
		return "naive"
	case Optimized:
		return "optimized"
	default:
		return fmt.Sprintf("cache.Policy(%d)", int(p))
	}
}

// Config describes one cache experiment.
type Config struct {
	// CacheQubits is the cache capacity in logical qubits. The paper
	// studies {1, 1.5, 2} x PE where PE is the compute-region size.
	CacheQubits int
	// Policy is the instruction fetch strategy.
	Policy Policy
}

// Result reports the measured hit behaviour.
type Result struct {
	Config       Config
	Instructions int
	Accesses     int
	Hits         int
	// FullHits counts instructions all of whose operands were cached — the
	// instructions that proceed without touching the transfer network.
	FullHits int
}

// HitRate returns operand hits over operand accesses.
func (r Result) HitRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Accesses)
}

// count records one issued instruction's operand accesses and hits.
func (r *Result) count(accesses, hits int) {
	r.Accesses += accesses
	r.Hits += hits
	if hits == accesses {
		r.FullHits++
	}
}

// lru is a fixed-capacity least-recently-used set of the qubits
// 0..numQubits-1: an intrusive doubly-linked list over qubit indices, head
// most recent, with a bitmap recording residency.
type lru struct {
	capacity, size int
	head, tail     int32 // -1 when empty
	prev, next     []int32
	resident       []uint64
}

func newLRU(numQubits, capacity int) *lru {
	return &lru{
		capacity: capacity,
		head:     -1,
		tail:     -1,
		prev:     make([]int32, numQubits),
		next:     make([]int32, numQubits),
		resident: make([]uint64, (numQubits+63)/64),
	}
}

// contains reports residency without changing recency.
func (l *lru) contains(q int32) bool { return l.resident[q>>6]&(1<<(q&63)) != 0 }

// touch makes q resident and most recent, evicting the LRU entry if needed.
// It reports whether q was already resident and the qubit evicted to make
// room for it, or -1.
func (l *lru) touch(q int32) (hit bool, evicted int32) {
	if l.contains(q) {
		if l.head != q {
			l.unlink(q)
			l.pushFront(q)
		}
		return true, -1
	}
	evicted = -1
	if l.size >= l.capacity {
		evicted = l.tail
		l.unlink(l.tail)
		l.resident[evicted>>6] &^= 1 << (evicted & 63)
		l.size--
	}
	l.pushFront(q)
	l.resident[q>>6] |= 1 << (q & 63)
	l.size++
	return false, evicted
}

func (l *lru) unlink(q int32) {
	p, n := l.prev[q], l.next[q]
	if p >= 0 {
		l.next[p] = n
	} else {
		l.head = n
	}
	if n >= 0 {
		l.prev[n] = p
	} else {
		l.tail = p
	}
}

func (l *lru) pushFront(q int32) {
	l.prev[q], l.next[q] = -1, l.head
	if l.head >= 0 {
		l.prev[l.head] = q
	} else {
		l.tail = q
	}
	l.head = q
}

// Simulate replays the circuit against the cache and returns the measured
// hit statistics.
func Simulate(c *circuit.Circuit, cfg Config) Result {
	if cfg.CacheQubits < 1 {
		panic(fmt.Sprintf("cache: capacity %d < 1", cfg.CacheQubits))
	}
	switch cfg.Policy {
	case Naive:
		return simulateNaive(c, cfg)
	case Optimized:
		return simulateOptimized(c, cfg)
	default:
		panic(fmt.Sprintf("cache: unknown policy %d", int(cfg.Policy)))
	}
}

func simulateNaive(c *circuit.Circuit, cfg Config) Result {
	res := Result{Config: cfg, Instructions: c.Len()}
	l := newLRU(c.NumQubits(), cfg.CacheQubits)
	for _, in := range c.Instrs() {
		ops := in.Operands()
		hits := 0
		for _, q := range ops {
			if hit, _ := l.touch(q); hit {
				hits++
			}
		}
		res.count(len(ops), hits)
	}
	return res
}

// simulateOptimized issues instructions with the dependency-aware fetch:
// among ready instructions it picks the one with the most cached operands,
// then fewest uncached operands, then program order. The ready set is a
// min-heap keyed ((3-cached)*4 + missing) << 32 | index, which orders
// exactly that way, and readyOn maps each qubit to the one ready
// instruction touching it. Issuing an instruction clears its operands'
// readyOn entries before touching them, so the qubits it brings in belong
// to no ready instruction; each qubit it evicts costs its ready
// instruction, if any, one cached operand and one heap fix.
func simulateOptimized(c *circuit.Circuit, cfg Config) Result {
	d := circuit.BuildDAG(c)
	n := c.Len()
	res := Result{Config: cfg, Instructions: n}
	f := fetcher{
		c:       c,
		lru:     newLRU(c.NumQubits(), cfg.CacheQubits),
		readyOn: make([]int32, c.NumQubits()),
		cached:  make([]uint8, n),
		pos:     make([]int32, n),
	}
	for q := range f.readyOn {
		f.readyOn[q] = -1
	}
	remaining := make([]int32, n)
	for i := 0; i < n; i++ {
		remaining[i] = int32(len(d.Deps(i)))
		if remaining[i] == 0 {
			f.push(i)
		}
	}

	issued := 0
	for len(f.heap) > 0 {
		i := f.pop()
		issued++
		ops := c.Instr(i).Operands()
		for _, q := range ops {
			f.readyOn[q] = -1
		}
		hits := 0
		for _, q := range ops {
			hit, ev := f.lru.touch(q)
			if hit {
				hits++
			} else if ev >= 0 && f.readyOn[ev] >= 0 {
				f.uncache(int(f.readyOn[ev]))
			}
		}
		res.count(len(ops), hits)
		for _, s := range d.Succs(i) {
			remaining[s]--
			if remaining[s] == 0 {
				f.push(int(s))
			}
		}
	}
	if issued != n {
		panic("cache: optimized fetch lost instructions")
	}
	return res
}

// fetcher is the optimized fetch's ready set: an indexed min-heap of
// instruction keys (fetchKey) plus the per-qubit ready owner.
type fetcher struct {
	c       *circuit.Circuit
	lru     *lru
	readyOn []int32  // the ready instruction touching each qubit, or -1
	cached  []uint8  // resident operand count of each ready instruction
	heap    []uint64 // fetchKey of every ready instruction
	pos     []int32  // heap slot of each ready instruction
}

// fetchKey orders ready instructions most cached first, then fewest
// missing (uncached) operands, then program order. Arity is at most 3, so
// missing fits below the factor 4.
func fetchKey(cached, arity, i int) uint64 {
	return uint64((3-cached)*4+arity-cached)<<32 | uint64(i)
}

// push makes instruction i ready, counting its cached operands once.
func (f *fetcher) push(i int) {
	ops := f.c.Instr(i).Operands()
	cached := 0
	for _, q := range ops {
		f.readyOn[q] = int32(i)
		if f.lru.contains(q) {
			cached++
		}
	}
	f.cached[i] = uint8(cached)
	f.pos[i] = int32(len(f.heap))
	f.heap = append(f.heap, fetchKey(cached, len(ops), i))
	f.up(len(f.heap) - 1)
}

// pop removes and returns the ready instruction with the smallest key.
func (f *fetcher) pop() int {
	i := int(uint32(f.heap[0]))
	last := len(f.heap) - 1
	f.swap(0, last)
	f.heap = f.heap[:last]
	f.down(0)
	return i
}

// uncache records that one of ready instruction i's operands was evicted.
// Its key only grows, so it can only sink.
func (f *fetcher) uncache(i int) {
	f.cached[i]--
	f.heap[f.pos[i]] = fetchKey(int(f.cached[i]), len(f.c.Instr(i).Operands()), i)
	f.down(int(f.pos[i]))
}

func (f *fetcher) swap(a, b int) {
	f.heap[a], f.heap[b] = f.heap[b], f.heap[a]
	f.pos[uint32(f.heap[a])] = int32(a)
	f.pos[uint32(f.heap[b])] = int32(b)
}

func (f *fetcher) up(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if f.heap[p] <= f.heap[j] {
			return
		}
		f.swap(p, j)
		j = p
	}
}

func (f *fetcher) down(j int) {
	n := len(f.heap)
	for {
		m := 2*j + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && f.heap[r] < f.heap[m] {
			m = r
		}
		if f.heap[j] <= f.heap[m] {
			return
		}
		f.swap(j, m)
		j = m
	}
}
