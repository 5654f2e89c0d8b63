package cache

// fifo is a first-in first-out queue on a power-of-two ring: the
// pending entries of a count window, pushed at the back in time order
// and popped from the front as they leave the window. A full ring
// doubles, so its capacity stays within twice the largest backlog it
// has held. The zero value is an empty queue.
type fifo[T any] struct {
	buf  []T
	head int // position of the front entry in buf
	n    int // entries held
}

// len returns the number of entries held.
func (q *fifo[T]) len() int { return q.n }

// at returns the i-th entry from the front, 0 <= i < len.
func (q *fifo[T]) at(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// push appends v at the back.
func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(1, 2*len(q.buf)))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the front entry; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// reset empties the queue, keeping its ring.
func (q *fifo[T]) reset() { q.head, q.n = 0, 0 }
