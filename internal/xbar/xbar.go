// Package xbar models the SM↔L2 interconnect as a crossbar with
// per-source injection ports, per-destination ejection ports, and a
// shared bisection-bandwidth limit. Contention therefore appears where it
// does on real GPUs: a single hot L2 bank saturates its ejection port
// long before the fabric itself saturates, and one SM cannot monopolize
// the fabric from its single injection port.
//
// All ports use byte-granular bandwidth accounting (sim.ThrottledPort),
// so small control messages share cycles instead of each burning one.
package xbar

import (
	"fmt"

	"cachecraft/internal/sim"
)

// Config sizes the crossbar.
type Config struct {
	// Sources and Destinations count the endpoints (SMs and L2 banks for
	// the request network; swapped for the response network).
	Sources      int
	Destinations int
	// PortBytesPerCycle is each endpoint port's bandwidth.
	PortBytesPerCycle int
	// BisectionBytesPerCycle caps total traffic through the fabric; 0
	// means no shared limit beyond the ports.
	BisectionBytesPerCycle int
	// Latency is the fabric traversal time added to every message.
	Latency sim.Cycle
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sources <= 0 || c.Destinations <= 0 {
		return fmt.Errorf("xbar: need positive endpoint counts, got %d×%d", c.Sources, c.Destinations)
	}
	if c.PortBytesPerCycle <= 0 {
		return fmt.Errorf("xbar: port bandwidth must be positive")
	}
	if c.BisectionBytesPerCycle < 0 {
		return fmt.Errorf("xbar: negative bisection bandwidth")
	}
	return nil
}

// Crossbar is one direction of the interconnect (requests or responses).
// Ports live in contiguous value slices: Transfer touches two of them per
// message, so keeping them out of individual heap objects avoids a pointer
// chase on every hop.
type Crossbar struct {
	cfg       Config
	inject    []sim.ThrottledPort
	eject     []sim.ThrottledPort
	bisection *sim.ThrottledPort
	hook      func(at, deliver sim.Cycle, src, dst, bytes int)
}

// SetHook installs the crossbar's one observer, called once per Transfer
// with the injection cycle, the computed delivery cycle, the endpoints,
// and the message size. A nil hook (the default) costs one branch per
// transfer.
func (x *Crossbar) SetHook(fn func(at, deliver sim.Cycle, src, dst, bytes int)) {
	x.hook = fn
}

// Latency reports the configured fabric traversal latency.
func (x *Crossbar) Latency() sim.Cycle { return x.cfg.Latency }

// New builds a crossbar. It panics on an invalid configuration (static
// setup, not runtime input).
func New(cfg Config) *Crossbar {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	x := &Crossbar{
		cfg:    cfg,
		inject: make([]sim.ThrottledPort, cfg.Sources),
		eject:  make([]sim.ThrottledPort, cfg.Destinations),
	}
	for i := range x.inject {
		x.inject[i] = sim.MakeThrottledPort(cfg.PortBytesPerCycle)
	}
	for i := range x.eject {
		x.eject[i] = sim.MakeThrottledPort(cfg.PortBytesPerCycle)
	}
	if cfg.BisectionBytesPerCycle > 0 {
		x.bisection = sim.NewThrottledPort(cfg.BisectionBytesPerCycle)
	}
	return x
}

// Transfer moves a message of size bytes from src to dst starting at
// cycle at, and returns its delivery cycle. The model is virtual
// cut-through: injection port, fabric bisection, and ejection port are
// charged in parallel and delivery is bounded by the most contended of
// the three, plus the fabric latency.
func (x *Crossbar) Transfer(at sim.Cycle, src, dst, bytes int) sim.Cycle {
	if src < 0 || src >= x.cfg.Sources || dst < 0 || dst >= x.cfg.Destinations {
		panic(fmt.Sprintf("xbar: endpoint out of range (%d,%d)", src, dst))
	}
	t := x.inject[src].Transfer(at, bytes)
	if x.bisection != nil {
		if tb := x.bisection.Transfer(at, bytes); tb > t {
			t = tb
		}
	}
	if te := x.eject[dst].Transfer(at, bytes); te > t {
		t = te
	}
	deliver := t + x.cfg.Latency
	if x.hook != nil {
		x.hook(at, deliver, src, dst, bytes)
	}
	return deliver
}

// TotalBytes reports all bytes moved through the fabric.
func (x *Crossbar) TotalBytes() uint64 {
	var total uint64
	for i := range x.inject {
		total += x.inject[i].BusyBytes()
	}
	return total
}
