// Package minheap is the repository's one generic binary min-heap. It
// takes the place of the standard library's interface-based heap on hot
// paths: the element type is concrete, so Push and Pop move values
// directly instead of boxing each element into an interface, and the
// backing array is sized once at the caller's known high-water mark and
// reused across Reset, so steady-state operation never touches the
// allocator.
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

// Reset empties the heap, keeping its backing array.
func (h *Heap[T]) Reset() { h.a = h.a[:0] }

// Push adds v to the heap.
//
//cqla:noalloc
func (h *Heap[T]) Push(v T) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.a[i], h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// Pop removes and returns the minimum element; the heap must be non-empty.
//
//cqla:noalloc
func (h *Heap[T]) Pop() T {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	var zero T
	h.a[last] = zero // release references held by pointer-carrying types
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(h.a[l], h.a[smallest]) {
			smallest = l
		}
		if r < last && h.less(h.a[r], h.a[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
}
