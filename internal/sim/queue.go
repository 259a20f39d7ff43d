package sim

// Queue is a FIFO that reuses its backing array: Pop advances a head index
// instead of reslicing, so a queue that keeps a steady backlog stops
// allocating once its array has grown to fit that backlog. The zero value
// is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Peek returns the head item without removing it. The queue must not be
// empty.
func (q *Queue[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the head item. The queue must not be empty.
//
// Once the head passes half the array, the live tail moves to the front. A
// queue that never drains (a saturated core) would otherwise grow its array
// forever, because append only sees the ever-longer slice; compacting at
// half keeps the array within about twice the backlog, and each move of k
// items follows at least k pops, so Pop stays O(1) amortized.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head >= len(q.buf)/2:
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}
