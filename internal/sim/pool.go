package sim

// Pool is a free list of slot-indexed values, for state that travels
// through the event queue or a completion callback by index instead of
// by pointer. A released slot keeps its contents for the next Get — a
// slice's capacity, or a callback built once for the slot — so
// steady-state reuse allocates nothing. The zero value is an empty pool.
type Pool[T any] struct {
	items []T
	free  []int32
}

// Get takes a free slot, growing the pool when none is free. The slot
// holds whatever its last user left there; the caller resets what it uses.
func (p *Pool[T]) Get() int32 {
	if n := len(p.free); n > 0 {
		i := p.free[n-1]
		p.free = p.free[:n-1]
		return i
	}
	var zero T
	p.items = append(p.items, zero)
	return int32(len(p.items) - 1)
}

// At returns the slot's value. The pointer is valid until the next Get,
// which may move the pool.
func (p *Pool[T]) At(i int32) *T { return &p.items[i] }

// Put returns a slot to the pool.
func (p *Pool[T]) Put(i int32) { p.free = append(p.free, i) }
