package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

func TestLRUBasics(t *testing.T) {
	l := newLRU(5, 2)
	if hit, ev := l.touch(1); hit || ev != -1 {
		t.Errorf("first touch = (%v, %d), want a miss evicting nothing", hit, ev)
	}
	if hit, ev := l.touch(1); !hit || ev != -1 {
		t.Errorf("second touch = (%v, %d), want a hit", hit, ev)
	}
	l.touch(2)
	if _, ev := l.touch(3); ev != 1 {
		t.Errorf("touch(3) evicted %d, want 1 (LRU)", ev)
	}
	if l.contains(1) {
		t.Error("1 should have been evicted")
	}
	if !l.contains(2) || !l.contains(3) {
		t.Error("2 and 3 should be resident")
	}
	// Touching 2 makes 3 the LRU.
	if hit, ev := l.touch(2); !hit || ev != -1 {
		t.Errorf("refreshing 2 = (%v, %d), want a hit", hit, ev)
	}
	if _, ev := l.touch(4); ev != 3 {
		t.Errorf("touch(4) evicted %d, want 3", ev)
	}
	if l.contains(3) {
		t.Error("3 should have been evicted after 2 was refreshed")
	}
	// Touching the most recent qubit keeps the order: 2 is still the LRU.
	l.touch(4)
	if _, ev := l.touch(0); ev != 2 {
		t.Errorf("touch(0) evicted %d, want 2", ev)
	}
}

func TestSimulateTinyCircuit(t *testing.T) {
	c := circuit.New(3)
	c.AddCNOT(0, 1) // miss, miss
	c.AddCNOT(0, 1) // hit, hit
	c.AddH(2)       // miss (evicts 0 under capacity 2)
	c.AddH(0)       // miss again
	r := Simulate(c, Config{CacheQubits: 2, Policy: Naive})
	if r.Accesses != 6 || r.Hits != 2 {
		t.Errorf("accesses=%d hits=%d, want 6/2", r.Accesses, r.Hits)
	}
	if r.FullHits != 1 {
		t.Errorf("full hits = %d, want 1", r.FullHits)
	}
	if got := r.HitRate(); got != 2.0/6.0 {
		t.Errorf("hit rate = %g", got)
	}
}

func TestOptimizedRespectsDependencies(t *testing.T) {
	// Optimized fetch must not reorder dependent instructions: a serial
	// chain has a fixed order regardless of affinity.
	c := circuit.New(2)
	c.AddH(0)
	c.AddCNOT(0, 1)
	c.AddH(1)
	r := Simulate(c, Config{CacheQubits: 4, Policy: Optimized})
	if r.Instructions != 3 {
		t.Errorf("executed %d instructions", r.Instructions)
	}
	// All operands fit: only compulsory misses.
	if r.Hits != r.Accesses-2 {
		t.Errorf("hits=%d accesses=%d, want only 2 compulsory misses", r.Hits, r.Accesses)
	}
}

func TestOptimizedExecutesEverything(t *testing.T) {
	ad := gen.CarryLookahead(32)
	r := Simulate(ad.Circuit, Config{CacheQubits: 50, Policy: Optimized})
	if r.Instructions != ad.Circuit.Len() {
		t.Errorf("executed %d of %d instructions", r.Instructions, ad.Circuit.Len())
	}
	var accesses int
	for _, in := range ad.Circuit.Instrs() {
		accesses += len(in.Operands())
	}
	if r.Accesses != accesses {
		t.Errorf("accesses %d, want %d", r.Accesses, accesses)
	}
}

func TestFigure7OptimizedBeatsNaive(t *testing.T) {
	// The central Figure 7 result: dependency-aware fetch raises the hit
	// rate far more than growing the cache does. (Paper: ~20% -> ~85%;
	// our adder variant measures ~44% -> ~63-70%, same shape.)
	blocks := map[int]int{64: 9, 128: 16, 256: 36}
	for n, k := range blocks {
		ad := gen.CarryLookahead(n)
		pe := 9 * k
		naive1 := Simulate(ad.Circuit, Config{CacheQubits: pe, Policy: Naive})
		naive2 := Simulate(ad.Circuit, Config{CacheQubits: 2 * pe, Policy: Naive})
		opt1 := Simulate(ad.Circuit, Config{CacheQubits: pe, Policy: Optimized})
		opt2 := Simulate(ad.Circuit, Config{CacheQubits: 2 * pe, Policy: Optimized})
		if opt1.HitRate() < naive1.HitRate()+0.15 {
			t.Errorf("n=%d: optimized %.2f not clearly above naive %.2f", n, opt1.HitRate(), naive1.HitRate())
		}
		// Optimized fetch at 1xPE beats naive even at 2xPE: the paper's
		// "increase in hit-rate is more pronounced due to the optimized
		// fetch than increasing cache size".
		if opt1.HitRate() <= naive2.HitRate() {
			t.Errorf("n=%d: optimized@PE %.2f should beat naive@2PE %.2f", n, opt1.HitRate(), naive2.HitRate())
		}
		// Larger caches still help a little under either policy.
		if opt2.HitRate() < opt1.HitRate() || naive2.HitRate() < naive1.HitRate() {
			t.Errorf("n=%d: hit rate dropped with a larger cache", n)
		}
	}
}

func TestFigure7HitRateInsensitiveToAdderSize(t *testing.T) {
	// "almost 85% immaterial of adder size and cache size" — the optimized
	// hit rate must be flat across adder sizes (ours sits near 63-70%).
	blocks := map[int]int{64: 9, 256: 36, 512: 64}
	var rates []float64
	for _, n := range []int{64, 256, 512} {
		ad := gen.CarryLookahead(n)
		cfg := Config{CacheQubits: 2 * 9 * blocks[n], Policy: Optimized}
		rates = append(rates, Simulate(ad.Circuit, cfg).HitRate())
	}
	for i := 1; i < len(rates); i++ {
		if diff := rates[i] - rates[0]; diff > 0.08 || diff < -0.08 {
			t.Errorf("optimized hit rate varies with adder size: %v", rates)
		}
	}
	for _, r := range rates {
		if r < 0.60 {
			t.Errorf("optimized hit rate %.2f below expected floor", r)
		}
	}
}

// TestSweepShape: one adder size's worth of Figure 7 bars — at every
// capacity, optimized fetch beats naive fetch.
func TestSweepShape(t *testing.T) {
	ad := gen.CarryLookahead(64)
	for _, capacity := range []int{81, 121, 162} {
		naive := Simulate(ad.Circuit, Config{CacheQubits: capacity, Policy: Naive})
		opt := Simulate(ad.Circuit, Config{CacheQubits: capacity, Policy: Optimized})
		if opt.HitRate() <= naive.HitRate() {
			t.Errorf("capacity %d: optimized should beat naive", capacity)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Naive.String() != "naive" || Optimized.String() != "optimized" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still render")
	}
}

func TestSimulatePanicsOnBadConfig(t *testing.T) {
	c := circuit.New(1)
	c.AddH(0)
	for _, cfg := range []Config{{CacheQubits: 0, Policy: Naive}, {CacheQubits: 4, Policy: Policy(7)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			Simulate(c, cfg)
		}()
	}
}

// TestFetchMatchesReference pins the dense LRU and the incremental fetch to
// the original scan-based simulator below, field for field, on the Figure 7
// grid and on random circuits at every capacity from 1 to nq+2.
func TestFetchMatchesReference(t *testing.T) {
	check := func(name string, c *circuit.Circuit, capQ int) {
		t.Helper()
		for _, pol := range []Policy{Naive, Optimized} {
			cfg := Config{CacheQubits: capQ, Policy: pol}
			if got, want := Simulate(c, cfg), refSimulate(c, cfg); got != want {
				t.Fatalf("%s cap=%d %v: got %+v, want %+v", name, capQ, pol, got, want)
			}
		}
	}
	// Figure 7: adder size -> compute blocks (cqla.PaperBlockCounts, lo
	// budget), at {1, 1.5, 2} x 9 data qubits per block.
	fig7 := [][2]int{{64, 9}, {128, 16}, {256, 36}, {512, 64}, {1024, 100}}
	for _, nb := range fig7 {
		ad := gen.CarryLookahead(nb[0])
		for _, mult := range []float64{1, 1.5, 2} {
			check(fmt.Sprintf("%d-bit adder", nb[0]), ad.Circuit, int(mult*float64(9*nb[1])))
		}
	}

	rng := rand.New(rand.NewSource(7))
	kinds := []circuit.Kind{circuit.H, circuit.CNOT, circuit.Toffoli}
	for trial := 0; trial < 1200; trial++ {
		nq := 1 + rng.Intn(12)
		c := circuit.New(nq)
		for g := rng.Intn(60); g > 0; g-- {
			k := kinds[rng.Intn(min(nq, len(kinds)))]
			c.Append(circuit.NewInstr(k, rng.Perm(nq)[:k.Arity()]...))
		}
		for capQ := 1; capQ <= nq+2; capQ++ {
			check(fmt.Sprintf("random circuit %d", trial), c, capQ)
		}
	}
}

// refSimulate is the simulator as it stood before the dense LRU and the
// incremental ready-set heap: a map-indexed container/list LRU and a full
// scan of the ready set per issue. It is the oracle for
// TestFetchMatchesReference and is kept verbatim.
func refSimulate(c *circuit.Circuit, cfg Config) Result {
	if cfg.Policy == Naive {
		return refSimulateOrder(c, cfg, refProgramOrder(c))
	}
	return refSimulateOptimized(c, cfg)
}

// refLRU is a fixed-capacity least-recently-used set of logical qubits.
type refLRU struct {
	capacity int
	order    *list.List // front = most recent
	index    map[int]*list.Element
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, order: list.New(), index: make(map[int]*list.Element)}
}

// contains reports residency without changing recency.
func (l *refLRU) contains(q int) bool {
	_, ok := l.index[q]
	return ok
}

// touch makes q resident and most recent, evicting the LRU entry if needed.
// It reports whether q was already resident.
func (l *refLRU) touch(q int) bool {
	if e, ok := l.index[q]; ok {
		l.order.MoveToFront(e)
		return true
	}
	if l.order.Len() >= l.capacity {
		back := l.order.Back()
		delete(l.index, back.Value.(int))
		l.order.Remove(back)
	}
	l.index[q] = l.order.PushFront(q)
	return false
}

func refProgramOrder(c *circuit.Circuit) []int {
	order := make([]int, c.Len())
	for i := range order {
		order[i] = i
	}
	return order
}

func refSimulateOrder(c *circuit.Circuit, cfg Config, order []int) Result {
	res := Result{Config: cfg, Instructions: len(order)}
	l := newRefLRU(cfg.CacheQubits)
	for _, i := range order {
		in := c.Instr(i)
		full := true
		for _, q := range in.Operands() {
			res.Accesses++
			if l.touch(int(q)) {
				res.Hits++
			} else {
				full = false
			}
		}
		if full {
			res.FullHits++
		}
	}
	return res
}

// refSimulateOptimized issues instructions with the dependency-aware fetch:
// among ready instructions it picks the one with the most cached operands
// (then fewest uncached operands, then program order), scanning the whole
// ready set per issue.
func refSimulateOptimized(c *circuit.Circuit, cfg Config) Result {
	d := circuit.BuildDAG(c)
	res := Result{Config: cfg, Instructions: c.Len()}
	l := newRefLRU(cfg.CacheQubits)

	remaining := make([]int, c.Len())
	var ready []int
	for i := 0; i < c.Len(); i++ {
		remaining[i] = len(d.Deps(i))
		if remaining[i] == 0 {
			ready = append(ready, i)
		}
	}

	for len(ready) > 0 {
		bestIdx := 0
		bestCached, bestMissing := -1, 1<<30
		for idx, i := range ready {
			cached := 0
			ops := c.Instr(i).Operands()
			for _, q := range ops {
				if l.contains(int(q)) {
					cached++
				}
			}
			missing := len(ops) - cached
			if cached > bestCached || (cached == bestCached && missing < bestMissing) ||
				(cached == bestCached && missing == bestMissing && i < ready[bestIdx]) {
				bestIdx, bestCached, bestMissing = idx, cached, missing
			}
		}
		i := ready[bestIdx]
		ready[bestIdx] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]

		in := c.Instr(i)
		full := true
		for _, q := range in.Operands() {
			res.Accesses++
			if l.touch(int(q)) {
				res.Hits++
			} else {
				full = false
			}
		}
		if full {
			res.FullHits++
		}
		for _, s := range d.Succs(i) {
			remaining[s]--
			if remaining[s] == 0 {
				ready = append(ready, int(s))
			}
		}
	}
	if res.Instructions != c.Len() {
		panic("cache: optimized fetch lost instructions")
	}
	return res
}
