// Package stats collects and renders simulation statistics: named counters,
// means, and the table/CSV renderers used by the benchmark harness to
// print paper-style rows.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Counters is a set of named uint64 counters. The zero value is ready to
// use after NewCounters; use that constructor so the map exists.
//
// Internally values live in a dense slice indexed through a name→slot map,
// so hot paths can pre-resolve a Handle once and then update the slot with
// no map traffic at all. Registration order is remembered (and is what the
// renderers and the result store's JSON encoding iterate in), so handles
// resolve lazily on first use — pre-registering at construction would
// change the order.
type Counters struct {
	index map[string]int32
	vals  []uint64
	order []string
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{index: make(map[string]int32)}
}

// slot returns the value index for name, registering it (in creation
// order) on first touch.
func (c *Counters) slot(name string) int32 {
	if i, ok := c.index[name]; ok {
		return i
	}
	i := int32(len(c.vals))
	c.index[name] = i
	c.vals = append(c.vals, 0)
	c.order = append(c.order, name)
	return i
}

// Add increments the named counter by delta, creating it at zero first if
// needed. Creation order is remembered for stable rendering.
func (c *Counters) Add(name string, delta uint64) {
	c.vals[c.slot(name)] += delta
}

// Get reports the counter's value (zero if never touched).
func (c *Counters) Get(name string) uint64 {
	if i, ok := c.index[name]; ok {
		return c.vals[i]
	}
	return 0
}

// Set overwrites the counter's value.
func (c *Counters) Set(name string, v uint64) {
	c.vals[c.slot(name)] = v
}

// Handle is a pre-resolved reference to one counter, for hot paths that
// bump the same counter millions of times. Resolution is deferred to the
// first Add/Inc so that taking a handle at construction does not disturb
// the counter set's creation order; after that every update is a slice
// store. A Handle must be used through a pointer (the resolved slot is
// cached in place) and is only valid for the Counters it was created from.
type Handle struct {
	c    *Counters
	name string
	slot int32 // resolved slot + 1; 0 means unresolved
}

// Handle returns a lazily-resolving handle for the named counter.
func (c *Counters) Handle(name string) Handle {
	return Handle{c: c, name: name}
}

// Add increments the handle's counter by delta.
func (h *Handle) Add(delta uint64) {
	if h.slot == 0 {
		h.slot = h.c.slot(h.name) + 1
	}
	h.c.vals[h.slot-1] += delta
}

// Inc increments the handle's counter by one.
func (h *Handle) Inc() { h.Add(1) }

// Names returns the counter names in creation order.
func (c *Counters) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Merge adds every counter from other into c.
func (c *Counters) Merge(other *Counters) {
	for i, name := range other.order {
		c.Add(name, other.vals[i])
	}
}

// String renders the counters as "name=value" lines in creation order.
func (c *Counters) String() string {
	var b strings.Builder
	for i, name := range c.order {
		fmt.Fprintf(&b, "%s=%d\n", name, c.vals[i])
	}
	return b.String()
}

// Geomean returns the geometric mean of xs, ignoring non-positive entries.
// It returns 0 when no positive entries exist.
func Geomean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
