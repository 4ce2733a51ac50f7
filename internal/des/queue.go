package des

// intQueue is a FIFO of ints over a reusable backing slice. Pops advance a
// head index instead of reslicing away the prefix (the old `q = q[1:]`
// idiom strands capacity and forces append to reallocate), and the dead
// prefix is recycled when it outgrows the live region, so a queue sized at
// construction never allocates again.
type intQueue struct {
	buf  []int
	head int
}

func newIntQueue(capacity int) *intQueue {
	return &intQueue{buf: make([]int, 0, capacity)}
}

func (q *intQueue) len() int { return len(q.buf) - q.head }

//cqla:noalloc
func (q *intQueue) push(v int) {
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head > len(q.buf)-q.head {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

//cqla:noalloc
func (q *intQueue) pop() int {
	v := q.buf[q.head]
	q.head++
	return v
}

func (q *intQueue) peek() int { return q.buf[q.head] }
