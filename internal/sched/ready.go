package sched

import (
	"math/bits"

	"repro/internal/minheap"
)

// none marks an empty bucket in readySet.tail.
const none = ^uint32(0)

// readySet is the list scheduler's ready frontier. It pops in the order of
// the packed key ^rank<<32 | index: the highest critical-path rank first,
// ties to the lower index. Ranks are the dense ranks of the priorities
// (see rankPriorities), so the per-rank tables grow with the number of
// distinct priorities, not with the critical path in slots.
//
// Each rank keeps a bucket: a FIFO run of increasing instruction index,
// linked through next as a circular list entered at its tail, so the head
// is next[tail]. Instructions mostly become ready in index order within
// their rank, so an arrival above its bucket's tail is appended in O(1);
// one below it goes to the overflow heap instead. A bit tree over the
// non-empty ranks finds the top bucket. Every other bucket holds a lower
// rank, so the lesser key of the top bucket's head and the overflow's
// least key is the least key of the whole set.
type readySet struct {
	rank []uint32 // per instruction: its dense priority rank
	next []uint32 // per instruction: the next of its bucket, written on push
	tail []uint32 // per rank: the bucket's last instruction, or none

	// tree[0] holds one bit per non-empty bucket, and each level above
	// one bit per non-zero word of the level below; the last level is a
	// single word.
	tree   [maxTreeLevels][]uint32
	levels int
	top    int // the greatest non-empty rank, or -1

	overflow *minheap.Heap[uint64]
}

// maxTreeLevels covers every rank below 2^35 at 32 bits a word, past the
// DAG's 2^31 instructions.
const maxTreeLevels = 7

// treeWords returns how many words a bit tree over ranks ranks needs.
func treeWords(ranks int) int {
	words := 0
	for {
		ranks = (ranks + 31) / 32
		words += ranks
		if ranks <= 1 {
			return words
		}
	}
}

// newReadySet builds an empty ready set over ranks ranks, carving tail and
// the tree from arena, which must hold ranks+treeWords(ranks) words, the
// tree's zero.
// The overflow heap holds at most capacity instructions.
func newReadySet(rank, next, arena []uint32, ranks, capacity int) readySet {
	s := readySet{rank: rank, next: next, top: -1, overflow: minheap.New(capacity, keyLess)}
	s.tail, arena = arena[:ranks], arena[ranks:]
	for r := range s.tail {
		s.tail[r] = none
	}
	for w := ranks; ; s.levels++ {
		w = (w + 31) / 32
		s.tree[s.levels], arena = arena[:w], arena[w:]
		if w <= 1 {
			s.levels++
			return s
		}
	}
}

// empty reports whether no instruction is ready. An overflow instruction
// arrived below its bucket's tail, which outlasts it in the set (a bucket
// pops in index order, and the pop order is total), so every overflow
// instruction's bucket is non-empty: no top bucket means no overflow.
func (s *readySet) empty() bool { return s.top < 0 }

// key packs instruction i's pop key.
func (s *readySet) key(i uint32) uint64 { return uint64(^s.rank[i])<<32 | uint64(i) }

// push adds instruction i.
func (s *readySet) push(i uint32) {
	r := s.rank[i]
	switch t := s.tail[r]; {
	case t == none:
		s.next[i] = i
		s.tail[r] = i
		s.mark(r)
		s.top = max(s.top, int(r))
	case i > t:
		s.next[i] = s.next[t]
		s.next[t] = i
		s.tail[r] = i
	default:
		s.overflow.Push(s.key(i))
	}
}

// pop removes and returns the instruction with the least key; the set
// must be non-empty.
func (s *readySet) pop() uint32 {
	t := s.tail[s.top]
	h := s.next[t]
	if s.overflow.Len() > 0 && s.overflow.Peek() < s.key(h) {
		return uint32(s.overflow.Pop())
	}
	if h != t {
		s.next[t] = s.next[h]
		return h
	}
	s.tail[s.top] = none
	s.unmark(uint32(s.top))
	s.top = s.highest()
	return h
}

// mark sets rank r's bit, and its word's bit at each level above that
// was empty before.
func (s *readySet) mark(r uint32) {
	for l := 0; l < s.levels; l++ {
		w := &s.tree[l][r>>5]
		was := *w
		*w = was | 1<<(r&31)
		if was != 0 {
			return
		}
		r >>= 5
	}
}

// unmark clears rank r's bit, and its word's bit at each level above that
// it leaves empty.
func (s *readySet) unmark(r uint32) {
	for l := 0; l < s.levels; l++ {
		w := &s.tree[l][r>>5]
		if *w &^= 1 << (r & 31); *w != 0 {
			return
		}
		r >>= 5
	}
}

// highest returns the greatest marked rank, or -1 when none is.
func (s *readySet) highest() int {
	l := s.levels - 1
	w := s.tree[l][0]
	if w == 0 {
		return -1
	}
	r := bits.Len32(w) - 1
	for l--; l >= 0; l-- {
		r = r<<5 | (bits.Len32(s.tree[l][r]) - 1)
	}
	return r
}

// rankPriorities replaces each priority in prio by its rank among the
// distinct priorities (0 for the least) and returns the number of
// distinct priorities. present and prefix are scratch of max(prio)/32+1
// zero words each: a presence bitmap over the priorities and its running
// popcount.
func rankPriorities(prio, present, prefix []uint32) int {
	for _, p := range prio {
		present[p>>5] |= 1 << (p & 31)
	}
	var ranks uint32
	for w, b := range present {
		prefix[w] = ranks
		ranks += uint32(bits.OnesCount32(b))
	}
	for i, p := range prio {
		prio[i] = prefix[p>>5] + uint32(bits.OnesCount32(present[p>>5]&(1<<(p&31)-1)))
	}
	return int(ranks)
}

// runLane is a FIFO ring of running instructions that share one duration.
// Instructions are dispatched at a clock that never goes back, so equal
// durations end in dispatch order: the head is the lane's first to end.
// Each entry is an (end slot, instruction) pair.
type runLane struct {
	ring    []uint32
	head, n int
	dur     int
}

// push appends instruction i ending at end; the lane must have room.
func (l *runLane) push(end int, i uint32) {
	j := 2 * (l.head + l.n)
	if j >= len(l.ring) {
		j -= len(l.ring)
	}
	l.ring[j], l.ring[j+1] = uint32(end), i
	l.n++
}

// headEnd returns the end slot of the lane's first instruction to end; the
// lane must be non-empty.
func (l *runLane) headEnd() int { return int(l.ring[2*l.head]) }

// pop removes and returns the lane's first instruction to end.
func (l *runLane) pop() uint32 {
	i := l.ring[2*l.head+1]
	if l.head++; 2*l.head == len(l.ring) {
		l.head = 0
	}
	l.n--
	return i
}
