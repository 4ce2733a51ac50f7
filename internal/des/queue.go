package des

// intQueue is a FIFO of int32 indices (instructions and qubits, both below
// 2^31 by circuit's bounds) over a reusable backing slice. Pops advance a
// head index instead of reslicing away the prefix (the old `q = q[1:]`
// idiom strands capacity and forces append to reallocate), and the dead
// prefix is recycled when it outgrows the live region, so a queue sized at
// construction never allocates again.
type intQueue struct {
	buf  []int32
	head int
}

func newIntQueue(capacity int) *intQueue {
	return &intQueue{buf: make([]int32, 0, capacity)}
}

func (q *intQueue) len() int { return len(q.buf) - q.head }

//cqla:noalloc
func (q *intQueue) push(v int32) {
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head > len(q.buf)-q.head {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

//cqla:noalloc
func (q *intQueue) pop() int32 {
	v := q.buf[q.head]
	q.head++
	return v
}

func (q *intQueue) peek() int32 { return q.buf[q.head] }

// eventLane is a fixed-capacity FIFO ring of events that all share one
// duration. Events are pushed at the current simulated time plus that
// duration, and the current time never decreases while the sequence
// number only grows, so a lane is always sorted by (at, seq): its head is
// its least event.
type eventLane struct {
	buf  []event
	head int
	n    int
}

// push appends e; the lane must have room. The Runner sizes each lane to
// the resources that bound it, so it never overflows.
//
//cqla:noalloc
func (l *eventLane) push(e event) {
	i := l.head + l.n
	if i >= len(l.buf) {
		i -= len(l.buf)
	}
	l.buf[i] = e
	l.n++
}

//cqla:noalloc
func (l *eventLane) pop() event {
	e := l.buf[l.head]
	if l.head++; l.head == len(l.buf) {
		l.head = 0
	}
	l.n--
	return e
}

// eventQueue is the simulator's pending-event set: one FIFO lane per
// distinct event duration. Every lane is sorted by (at, seq), so the least
// lane head under eventLess is the least pending event, and pop yields
// exactly the sequence a min-heap over all events would — with a handful
// of head comparisons instead of a sift through the whole set.
type eventQueue struct {
	lanes []eventLane
	size  int
}

// newEventQueue returns a queue with one lane per capacity.
func newEventQueue(capacities []int) *eventQueue {
	q := &eventQueue{lanes: make([]eventLane, len(capacities))}
	for k, c := range capacities {
		q.lanes[k].buf = make([]event, c)
	}
	return q
}

func (q *eventQueue) len() int { return q.size }

// push adds e to the given lane; e must not precede the lane's last event
// under eventLess.
//
//cqla:noalloc
func (q *eventQueue) push(lane int, e event) {
	q.lanes[lane].push(e)
	q.size++
}

// pop removes and returns the least pending event; the queue must be
// non-empty.
//
//cqla:noalloc
func (q *eventQueue) pop() event {
	best := -1
	for k := range q.lanes {
		l := &q.lanes[k]
		if l.n > 0 && (best < 0 || eventLess(l.buf[l.head], q.lanes[best].buf[q.lanes[best].head])) {
			best = k
		}
	}
	q.size--
	return q.lanes[best].pop()
}

func (q *eventQueue) reset() {
	for k := range q.lanes {
		q.lanes[k].head, q.lanes[k].n = 0, 0
	}
	q.size = 0
}
