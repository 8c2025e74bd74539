package router

import "math/bits"

// picker selects grant winners round-robin among requesters. It provides
// the functional behaviour of the router's arbiters; the energy of each
// arbitration is computed by the power models hooked to the event bus,
// which maintain their own priority state per the configured arbiter kind.
type picker struct {
	n   int
	ptr int
}

// pick returns the winning requester for the request bitmask, rotating
// priority so the requester after the last winner is served first.
// It returns -1 when nothing requests.
func (p *picker) pick(req uint64) int {
	if p.n <= 0 || p.n > 64 {
		return -1
	}
	req &= mask(p.n)
	if req == 0 {
		return -1
	}
	// The first requester at or after the pointer wins; with none
	// there, the search wraps to the lowest requester.
	w := bits.TrailingZeros64(req &^ mask(p.ptr))
	if w == 64 {
		w = bits.TrailingZeros64(req)
	}
	if p.ptr = w + 1; p.ptr == p.n {
		p.ptr = 0
	}
	return w
}

func mask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// fifo is a slice-backed flit queue with O(1) amortised operations.
type fifo[T any] struct {
	items []T
	head  int
}

func (f *fifo[T]) len() int { return len(f.items) - f.head }

// each visits the queued items front to back without consuming them.
func (f *fifo[T]) each(fn func(T)) {
	for i := f.head; i < len(f.items); i++ {
		fn(f.items[i])
	}
}

func (f *fifo[T]) push(v T) { f.items = append(f.items, v) }

func (f *fifo[T]) front() (T, bool) {
	if f.len() == 0 {
		var zero T
		return zero, false
	}
	return f.items[f.head], true
}

func (f *fifo[T]) pop() (T, bool) {
	v, ok := f.front()
	if !ok {
		return v, false
	}
	var zero T
	f.items[f.head] = zero
	f.head++
	// Compact when the dead prefix dominates, bounding memory.
	if f.head > 32 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return v, true
}
