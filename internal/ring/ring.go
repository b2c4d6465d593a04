// Package ring provides the two allocation-free buffer shapes shared by
// the hot paths of the simulator and the live skeletons:
//
//   - FIFO: a growable ring-buffer queue, replacing the
//     `q = append(q, x)` / `q = q[1:]` idiom that leaks the backing
//     array's head and re-allocates under churn;
//   - Reorder: a sequence-indexed window that restores input order at a
//     replicated stage boundary, replacing the map[int]any pending
//     buffer (hash + boxing + rehash per item) with a direct
//     `seq - next` slot lookup.
//
// Both grow by power-of-two doubling and never shrink: a skeleton's
// steady state reuses whatever high-water capacity the warm-up reached,
// which is exactly the allocation-free property the benchmarks pin.
package ring

// FIFO is a growable ring-buffer queue. The zero value is an empty
// queue ready for use.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the front element
	n    int // number of queued elements
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v to the back of the queue.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the front element; ok is false on empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	i := q.head
	v = q.buf[i]
	var zero T
	q.buf[i] = zero // do not retain popped values
	q.head = (i + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}

// RemoveIf removes every queued element matching pred, preserving the
// relative order of the rest, and returns the removed elements in queue
// order. The removed slice is freshly allocated only when something
// matches — the empty case costs nothing.
func (q *FIFO[T]) RemoveIf(pred func(T) bool) []T {
	if q.n == 0 {
		return nil
	}
	var removed []T
	mask := len(q.buf) - 1
	kept := 0
	for i := 0; i < q.n; i++ {
		v := q.buf[(q.head+i)&mask]
		if pred(v) {
			removed = append(removed, v)
		} else {
			q.buf[(q.head+kept)&mask] = v
			kept++
		}
	}
	// Zero the vacated tail so removed values are not retained.
	var zero T
	for i := kept; i < q.n; i++ {
		q.buf[(q.head+i)&mask] = zero
	}
	q.n = kept
	return removed
}

func (q *FIFO[T]) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]T, newCap)
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = nb
	q.head = 0
}

// Reorder restores sequence order: values tagged with consecutive
// sequence numbers starting at 0 are Put in any order, and PopNext
// yields them in order as soon as each becomes available. The zero
// value is ready for use.
type Reorder[T any] struct {
	buf  []T    // len(buf) is zero or a power of two
	occ  []bool // occupancy per slot
	next int    // the next sequence number to emit
	held int    // number of buffered (occupied) values
}

// Next returns the next sequence number PopNext will emit.
func (r *Reorder[T]) Next() int { return r.next }

// Held returns the number of values buffered out of order.
func (r *Reorder[T]) Held() int { return r.held }

// Put buffers the value with the given sequence number. It panics on a
// sequence already emitted or already buffered: under the skeleton's
// 1-for-1 discipline each sequence number appears exactly once, and a
// duplicate means the stage above violated it.
func (r *Reorder[T]) Put(seq int, v T) {
	if seq < r.next {
		panic("ring: Put of already-emitted sequence")
	}
	for len(r.buf) == 0 || seq-r.next >= len(r.buf) {
		r.grow()
	}
	i := seq & (len(r.buf) - 1)
	if r.occ[i] {
		panic("ring: duplicate sequence")
	}
	r.buf[i] = v
	r.occ[i] = true
	r.held++
}

// PopNext removes and returns the value for the next sequence number if
// it has arrived; ok is false while it is still outstanding.
func (r *Reorder[T]) PopNext() (seq int, v T, ok bool) {
	if len(r.buf) == 0 {
		return 0, v, false
	}
	i := r.next & (len(r.buf) - 1)
	if !r.occ[i] {
		return 0, v, false
	}
	seq = r.next
	v = r.buf[i]
	var zero T
	r.buf[i] = zero
	r.occ[i] = false
	r.next++
	r.held--
	return seq, v, true
}

// grow doubles the window. Buffered values re-index to seq & newMask:
// with the window anchored at next, positions are recomputable from the
// occupancy scan of the old buffer.
func (r *Reorder[T]) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = 8
		r.buf = make([]T, newCap)
		r.occ = make([]bool, newCap)
		return
	}
	nb := make([]T, newCap)
	no := make([]bool, newCap)
	oldMask := len(r.buf) - 1
	for off := 0; off < len(r.buf); off++ {
		seq := r.next + off
		i := seq & oldMask
		if r.occ[i] {
			nb[seq&(newCap-1)] = r.buf[i]
			no[seq&(newCap-1)] = true
		}
	}
	r.buf = nb
	r.occ = no
}
