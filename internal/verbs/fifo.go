package verbs

// fifo is a FIFO queue in a circular buffer, for the receive queues and
// completion queues whose depth a QP or CQ fixes at creation. Its storage
// doubles on demand up to that depth, where it stays: a queue that fills
// and drains in steady state allocates nothing, and one that never fills
// never pays for its full depth. Only a push past the depth (a flush, which
// may overrun a CQ) grows it further.
type fifo[T any] struct {
	buf     []T
	head, n int
	depth   int
}

func newFIFO[T any](depth int) fifo[T] { return fifo[T]{depth: depth} }

// len returns the number of queued entries.
func (q *fifo[T]) len() int { return q.n }

// full reports whether the queue holds its depth.
func (q *fifo[T]) full() bool { return q.n >= q.depth }

// push appends v at the tail.
func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		c := max(2*len(q.buf), 8)
		if len(q.buf) < q.depth {
			c = min(c, q.depth)
		}
		buf := make([]T, c)
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// pop removes and returns the head entry; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// popInto moves up to len(dst) head entries into dst, in order, and
// returns how many it moved.
func (q *fifo[T]) popInto(dst []T) int {
	n := min(len(dst), q.n)
	for i := range dst[:n] {
		dst[i] = q.pop()
	}
	return n
}
