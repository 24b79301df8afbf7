package sim

import "testing"

// TestPoolReusesSlots: Put slots come back from Get most recent first,
// keeping what their last user left, and the pool grows only when no slot
// is free.
func TestPoolReusesSlots(t *testing.T) {
	var p Pool[[]int]
	a, b := p.Get(), p.Get()
	if a == b {
		t.Fatalf("two live slots share index %d", a)
	}
	*p.At(a) = append(*p.At(a), 1, 2, 3)
	p.Put(b)
	p.Put(a)
	if got := p.Get(); got != a || cap(*p.At(got)) < 3 {
		t.Fatalf("Get = %d (cap %d), want slot %d with its backing array kept", got, cap(*p.At(got)), a)
	}
	if got := p.Get(); got != b {
		t.Fatalf("Get = %d, want freed slot %d", got, b)
	}
	if got := p.Get(); got != 2 {
		t.Fatalf("Get on an empty free list = %d, want new slot 2", got)
	}
}
