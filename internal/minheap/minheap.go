// Package minheap is the repository's one generic binary min-heap. It
// takes the place of the standard library's interface-based heap on hot
// paths: the element type is concrete, so Push and Pop move values
// directly instead of boxing each element into an interface, and the
// backing array is sized once at the caller's known high-water mark, so
// steady-state operation never touches the allocator.
//
// The comparator must be a strict total order over the values pushed; the
// pop sequence is then fully determined by the pushed values, whatever
// the heap's internal layout.
package minheap

// Heap is a binary min-heap under a caller-supplied less function.
type Heap[T any] struct {
	a    []T
	less func(a, b T) bool
}

// New returns an empty heap whose backing array holds capacity elements
// before it must grow.
func New[T any](capacity int, less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{a: make([]T, 0, capacity), less: less}
}

// Len returns the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.a) }

// Peek returns the minimum element without removing it; the heap must be
// non-empty.
func (h *Heap[T]) Peek() T { return h.a[0] }

// Push adds v to the heap.
//
//cqla:noalloc
func (h *Heap[T]) Push(v T) {
	h.a = append(h.a, v)
	h.up(len(h.a)-1, v)
}

// Pop removes and returns the minimum element; the heap must be non-empty.
// It sinks the hole the minimum leaves to a leaf along the lesser
// children, one comparison a level, and then lifts the displaced last
// element from there. That element is among the greatest, so it rarely
// climbs far: a pop costs about half the comparisons of a sift-down that
// compares the element against both children at every level, and the
// descent picks each child arithmetically rather than by a branch on the
// comparison, which a processor predicts no better than a coin toss.
//
//cqla:noalloc
func (h *Heap[T]) Pop() T {
	a := h.a
	top := a[0]
	last := len(a) - 1
	v := a[last]
	var zero T
	a[last] = zero // release references held by pointer-carrying types
	a = a[:last]
	h.a = a
	if last == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last {
			child += b2i(h.less(a[r], a[child]))
		}
		a[i] = a[child]
		i = child
	}
	h.up(i, v)
	return top
}

// up places v in the hole at index i, lifting the hole towards the root
// past every parent greater than v.
//
//cqla:noalloc
func (h *Heap[T]) up(i int, v T) {
	a := h.a
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = v
}

// b2i converts b to 0 or 1 without a conditional jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
