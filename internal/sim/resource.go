package sim

// ThrottledPort models an interconnect port with byte-granular bandwidth
// accounting: a message occupies the port for exactly bytes/bytesPerCycle
// cycles of capacity (fractional cycles included, so small messages from
// different sources share a cycle) and is delivered on the cycle its last
// byte crosses. Fabric latency is the caller's to add.
type ThrottledPort struct {
	bytesPerCy int
	// nextFree is the port's next free instant, measured in *bytes* of
	// link time (cycle × bytesPerCy) to avoid per-message rounding.
	nextFree  uint64
	busyBytes uint64
}

// NewThrottledPort builds a port that moves bytesPerCycle bytes per cycle.
func NewThrottledPort(bytesPerCycle int) *ThrottledPort {
	p := MakeThrottledPort(bytesPerCycle)
	return &p
}

// MakeThrottledPort is the value-typed constructor, for callers that embed
// ports in a contiguous slice instead of heap-allocating each one.
func MakeThrottledPort(bytesPerCycle int) ThrottledPort {
	return ThrottledPort{bytesPerCy: max(bytesPerCycle, 1)}
}

// Transfer reserves the port for a message of size bytes arriving at cycle
// at and returns the cycle at which the message is delivered.
func (p *ThrottledPort) Transfer(at Cycle, bytes int) Cycle {
	if bytes <= 0 {
		bytes = 1
	}
	byteNow := uint64(at) * uint64(p.bytesPerCy)
	start := byteNow
	if p.nextFree > start {
		start = p.nextFree
	}
	end := start + uint64(bytes)
	p.nextFree = end
	p.busyBytes += uint64(bytes)
	// Deliver on the cycle the last byte crosses.
	return Cycle((end + uint64(p.bytesPerCy) - 1) / uint64(p.bytesPerCy))
}

// BusyBytes reports the cumulative bytes moved.
func (p *ThrottledPort) BusyBytes() uint64 { return p.busyBytes }
