package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// This file implements trace recording and replay: any workload's access
// stream can be serialized to a compact binary format and replayed later,
// which is how externally-captured GPU traces (e.g. from a binary
// instrumentation tool) plug into the simulator.
//
// Format (little-endian):
//
//	magic   [8]byte  "CCTRACE1"
//	records until EOF:
//	  pc        uvarint
//	  flags     byte    (bit0 write, bit1 dependent)
//	  bytes     uvarint (per-thread access width)
//	  weight    uvarint (compute weight)
//	  nAddrs    uvarint
//	  addrs     nAddrs × uvarint (delta-encoded from previous addr in record)

var traceMagic = [8]byte{'C', 'C', 'T', 'R', 'A', 'C', 'E', '1'}

// Bounds on an access's shape. A per-thread access is 1 to MaxAccessBytes
// bytes wide (a 128-bit load; the built-in workloads use 4), and a compute
// weight outside 0 to MaxComputeWeight (the built-ins use at most 12)
// marks a malformed access, not a workload.
const (
	MaxAccessBytes   = 16
	MaxComputeWeight = 1 << 12
)

// CheckAccess rejects an access no machine can simulate: one with no
// addresses or more than WarpSize, a width or compute weight out of
// bounds, or a thread whose bytes reach past footprint. The replayer
// checks every record with it, and the SM every access it issues.
func CheckAccess(a Access, footprint uint64) error {
	switch {
	case len(a.Addrs) == 0 || len(a.Addrs) > WarpSize:
		return fmt.Errorf("trace: access with %d addresses", len(a.Addrs))
	case a.Bytes < 1 || a.Bytes > MaxAccessBytes:
		return fmt.Errorf("trace: access width %d outside 1-%d bytes", a.Bytes, MaxAccessBytes)
	case a.ComputeWeight < 0 || a.ComputeWeight > MaxComputeWeight:
		return fmt.Errorf("trace: compute weight %d outside 0-%d", a.ComputeWeight, MaxComputeWeight)
	}
	for _, addr := range a.Addrs {
		if addr >= footprint || footprint-addr < uint64(a.Bytes) {
			return fmt.Errorf("trace: address %#x outside footprint %#x", addr, footprint)
		}
	}
	return nil
}

// Writer serializes accesses.
type Writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	n   int
}

// NewWriter starts a trace on w, writing the header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

func (t *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(t.buf[:], v)
	_, err := t.w.Write(t.buf[:n])
	return err
}

// Write appends one access. It rejects an access a Replayer would reject
// for its shape; a trace declares no footprint, so any address goes.
func (t *Writer) Write(a Access) error {
	if err := CheckAccess(a, math.MaxUint64); err != nil {
		return err
	}
	if err := t.uvarint(a.PC); err != nil {
		return err
	}
	var flags byte
	if a.Write {
		flags |= 1
	}
	if a.Dependent {
		flags |= 2
	}
	if err := t.w.WriteByte(flags); err != nil {
		return err
	}
	if err := t.uvarint(uint64(a.Bytes)); err != nil {
		return err
	}
	if err := t.uvarint(uint64(a.ComputeWeight)); err != nil {
		return err
	}
	if err := t.uvarint(uint64(len(a.Addrs))); err != nil {
		return err
	}
	prev := uint64(0)
	for _, addr := range a.Addrs {
		// Zig-zag delta: threads usually ascend, but gathers may not.
		delta := int64(addr) - int64(prev)
		if err := t.uvarint(zigzag(delta)); err != nil {
			return err
		}
		prev = addr
	}
	t.n++
	return nil
}

// Count reports how many accesses have been written.
func (t *Writer) Count() int { return t.n }

// Flush drains the buffered writer.
func (t *Writer) Flush() error { return t.w.Flush() }

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Replayer is a Workload that replays a serialized trace.
type Replayer struct {
	name      string
	r         *bufio.Reader
	footprint uint64
	err       error
	addrs     [WarpSize]uint64 // scratch backing each decoded Access.Addrs
}

// NewReplayer opens a trace for replay. footprint is the logical data
// extent the trace addresses live in (needed by the machine to size the
// protected region).
func NewReplayer(name string, r io.Reader, footprint uint64) (*Replayer, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	return &Replayer{name: name, r: br, footprint: footprint}, nil
}

// Name identifies the replayed trace.
func (t *Replayer) Name() string { return t.name }

// Footprint reports the declared logical extent.
func (t *Replayer) Footprint() uint64 { return t.footprint }

// Err reports the first malformed-record error encountered (EOF is not an
// error; it ends the stream). A malformed record ends the stream too, so
// the machine reports Err after its run.
func (t *Replayer) Err() error { return t.err }

// Next decodes the next access.
func (t *Replayer) Next() (Access, bool) {
	if t.err != nil {
		return Access{}, false
	}
	pc, err := binary.ReadUvarint(t.r)
	if err != nil {
		if err != io.EOF {
			t.err = fmt.Errorf("trace: reading pc: %w", err)
		}
		return Access{}, false
	}
	flags, err := t.r.ReadByte()
	if err != nil {
		t.err = fmt.Errorf("trace: truncated record: %w", err)
		return Access{}, false
	}
	width, err := binary.ReadUvarint(t.r)
	if err != nil {
		t.err = fmt.Errorf("trace: reading width: %w", err)
		return Access{}, false
	}
	weight, err := binary.ReadUvarint(t.r)
	if err != nil {
		t.err = fmt.Errorf("trace: reading weight: %w", err)
		return Access{}, false
	}
	n, err := binary.ReadUvarint(t.r)
	if err != nil {
		t.err = fmt.Errorf("trace: reading address count: %w", err)
		return Access{}, false
	}
	if n == 0 || n > WarpSize {
		t.err = fmt.Errorf("trace: record with %d addresses", n)
		return Access{}, false
	}
	a := Access{
		PC:            pc,
		Write:         flags&1 != 0,
		Dependent:     flags&2 != 0,
		Bytes:         int(width),
		ComputeWeight: int(weight),
		Addrs:         t.addrs[:n],
	}
	prev := uint64(0)
	for i := range a.Addrs {
		du, err := binary.ReadUvarint(t.r)
		if err != nil {
			t.err = fmt.Errorf("trace: reading address %d: %w", i, err)
			return Access{}, false
		}
		a.Addrs[i] = uint64(int64(prev) + unzigzag(du))
		prev = a.Addrs[i]
	}
	if err := CheckAccess(a, t.footprint); err != nil {
		t.err = err
		return Access{}, false
	}
	return a, true
}

// Record drains a workload into a trace writer, returning the number of
// accesses written.
func Record(w Workload, out io.Writer) (int, error) {
	tw, err := NewWriter(out)
	if err != nil {
		return 0, err
	}
	for {
		a, ok := w.Next()
		if !ok {
			break
		}
		if err := tw.Write(a); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}

var _ Workload = (*Replayer)(nil)
