// Package mem defines the memory request types shared between the cache
// hierarchy, the protection controllers, and the DRAM model.
package mem

import "fmt"

// Class labels why a DRAM access exists, for the traffic-breakdown figures.
type Class int

const (
	// Demand: data requested by the running program.
	Demand Class = iota
	// Redundancy: ECC redundancy-block traffic added by protection.
	Redundancy
	// Writeback: dirty evictions from the cache hierarchy.
	Writeback
	// RMW: extra reads forced by partial-codeword writes
	// (read-modify-write of the protection granule).
	RMW
	// Reconstruct: sibling-sector reads added by CacheCraft's granule
	// reconstruction (overfetch turned into prefetch).
	Reconstruct
	numClasses
)

// String renders the class label used in stats counters.
func (c Class) String() string {
	switch c {
	case Demand:
		return "demand"
	case Redundancy:
		return "redundancy"
	case Writeback:
		return "writeback"
	case RMW:
		return "rmw"
	case Reconstruct:
		return "reconstruct"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists all traffic classes in presentation order.
func Classes() []Class {
	return []Class{Demand, Redundancy, Writeback, RMW, Reconstruct}
}

// Request is one DRAM access. Addr is a physical byte address; Bytes is the
// transfer size (a sector or redundancy block). A request carries no
// completion callback: a caller that waits for it submits it with a
// handler (dram.DRAM.SubmitPost).
type Request struct {
	Addr  uint64
	Write bool
	Bytes int
	Class Class
}

// String renders the request for debugging.
func (r Request) String() string {
	op := "R"
	if r.Write {
		op = "W"
	}
	return fmt.Sprintf("%s %#x %dB %s", op, r.Addr, r.Bytes, r.Class)
}
