// Package layout implements the inline-ECC address organization: how a GPU
// without dedicated ECC storage carves redundancy out of ordinary DRAM
// capacity, and how a data address maps to the redundancy block that
// protects it.
//
// Two organizations are provided. LinearMapper reserves a contiguous
// carve-out at the top of physical memory (the simplest production
// arrangement). RowLocalMapper reserves the tail of every DRAM row, so a
// redundancy access lands in the same row as the data it covers and usually
// rides an already-open row buffer.
package layout

import "fmt"

// Geometry describes the protection granularity.
type Geometry struct {
	// SectorBytes is the memory access grain (GPU sector), typically 32.
	SectorBytes int
	// LineBytes is the cache line size, typically 128.
	LineBytes int
	// GranuleBytes is the protection granule: the span of data covered by
	// one redundancy block. A demand miss anywhere in a granule needs that
	// granule's redundancy block.
	GranuleBytes int
	// RedBlockBytes is the size of one redundancy block as stored and
	// fetched, typically one sector (32B).
	RedBlockBytes int
}

// MaxRedBlockBytes bounds a redundancy block, which is moved as one DRAM
// access and cached whole: CacheCraft's redundancy cache uses it as its
// line size.
const MaxRedBlockBytes = 256

// Validate checks internal consistency.
func (g Geometry) Validate() error {
	switch {
	case g.SectorBytes <= 0 || g.LineBytes <= 0 || g.GranuleBytes <= 0 || g.RedBlockBytes <= 0:
		return fmt.Errorf("layout: geometry fields must be positive: %+v", g)
	case g.LineBytes%g.SectorBytes != 0:
		return fmt.Errorf("layout: line %dB not a multiple of sector %dB", g.LineBytes, g.SectorBytes)
	case g.GranuleBytes%g.LineBytes != 0:
		return fmt.Errorf("layout: granule %dB not a multiple of line %dB", g.GranuleBytes, g.LineBytes)
	case g.RedBlockBytes > g.GranuleBytes:
		return fmt.Errorf("layout: redundancy block %dB exceeds granule %dB", g.RedBlockBytes, g.GranuleBytes)
	case g.RedBlockBytes&(g.RedBlockBytes-1) != 0 || g.RedBlockBytes > MaxRedBlockBytes:
		return fmt.Errorf("layout: redundancy block %dB not a power of two of at most %dB", g.RedBlockBytes, MaxRedBlockBytes)
	}
	return nil
}

// RedundancyRatio is redundancy bytes per data byte (e.g. 0.125).
func (g Geometry) RedundancyRatio() float64 {
	return float64(g.RedBlockBytes) / float64(g.GranuleBytes)
}

// SectorsPerGranule reports how many access-grain sectors one redundancy
// block covers.
func (g Geometry) SectorsPerGranule() int { return g.GranuleBytes / g.SectorBytes }

// SectorsPerLine reports the line's sector count.
func (g Geometry) SectorsPerLine() int { return g.LineBytes / g.SectorBytes }

// Mapper translates logical data addresses (what the workload and caches
// see) to physical DRAM addresses and to the redundancy blocks that protect
// them. Data and redundancy physical ranges never overlap.
type Mapper interface {
	// Name identifies the layout in configuration and tables.
	Name() string
	// Geometry reports the protection geometry.
	Geometry() Geometry
	// ProtectedBytes is the usable data capacity after the carve-out.
	ProtectedBytes() uint64
	// CarveoutBytes is the capacity consumed by redundancy.
	CarveoutBytes() uint64
	// DataPhys converts a logical data address to its physical address.
	DataPhys(dataAddr uint64) uint64
	// RedundancyAddr returns the physical address of the redundancy block
	// covering the given logical data address.
	RedundancyAddr(dataAddr uint64) uint64
	// GranuleBase returns the logical base address of the protection
	// granule containing dataAddr.
	GranuleBase(dataAddr uint64) uint64
}

// LinearMapper places all redundancy in a contiguous region above the
// protected data: phys data = identity, redundancy block i at
// carveoutBase + i*RedBlockBytes.
type LinearMapper struct {
	geo       Geometry
	dataBytes uint64
	carveBase uint64
}

// NewLinearMapper builds a linear carve-out layout over totalBytes of
// physical memory. totalBytes must split exactly into whole granules plus
// their redundancy.
func NewLinearMapper(totalBytes uint64, geo Geometry) (*LinearMapper, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	unit := uint64(geo.GranuleBytes + geo.RedBlockBytes)
	granules := totalBytes / unit
	if granules == 0 {
		return nil, fmt.Errorf("layout: %d bytes cannot hold one granule+redundancy unit (%d)", totalBytes, unit)
	}
	dataBytes := granules * uint64(geo.GranuleBytes)
	return &LinearMapper{geo: geo, dataBytes: dataBytes, carveBase: dataBytes}, nil
}

// Name identifies the layout.
func (m *LinearMapper) Name() string { return "linear" }

// Geometry reports the protection geometry.
func (m *LinearMapper) Geometry() Geometry { return m.geo }

// ProtectedBytes is the usable data capacity.
func (m *LinearMapper) ProtectedBytes() uint64 { return m.dataBytes }

// CarveoutBytes is the redundancy capacity.
func (m *LinearMapper) CarveoutBytes() uint64 {
	return m.dataBytes / uint64(m.geo.GranuleBytes) * uint64(m.geo.RedBlockBytes)
}

// DataPhys is the identity for a linear layout.
func (m *LinearMapper) DataPhys(dataAddr uint64) uint64 {
	m.checkData(dataAddr)
	return dataAddr
}

// RedundancyAddr maps granule i to carve-out block i.
func (m *LinearMapper) RedundancyAddr(dataAddr uint64) uint64 {
	m.checkData(dataAddr)
	granule := dataAddr / uint64(m.geo.GranuleBytes)
	return m.carveBase + granule*uint64(m.geo.RedBlockBytes)
}

// GranuleBase aligns down to the granule boundary.
func (m *LinearMapper) GranuleBase(dataAddr uint64) uint64 {
	m.checkData(dataAddr)
	return dataAddr - dataAddr%uint64(m.geo.GranuleBytes)
}

func (m *LinearMapper) checkData(addr uint64) {
	if addr >= m.dataBytes {
		panic(fmt.Sprintf("layout: data address %#x beyond protected capacity %#x", addr, m.dataBytes))
	}
}

// RowLocalMapper reserves the tail of every DRAM row for the redundancy of
// the data in that row. The logical data space is dense; physical rows
// interleave payload and redundancy.
type RowLocalMapper struct {
	geo          Geometry
	rowBytes     uint64
	payloadBytes uint64 // data bytes per row
	redPerRow    uint64 // redundancy bytes reserved per row
	dataBytes    uint64
}

// NewRowLocalMapper builds a row-local layout: each rowBytes-sized DRAM row
// holds payload granules followed by their redundancy blocks.
func NewRowLocalMapper(totalBytes uint64, rowBytes int, geo Geometry) (*RowLocalMapper, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if rowBytes <= 0 || uint64(rowBytes) > totalBytes {
		return nil, fmt.Errorf("layout: bad row size %d", rowBytes)
	}
	unit := uint64(geo.GranuleBytes + geo.RedBlockBytes)
	granulesPerRow := uint64(rowBytes) / unit
	if granulesPerRow == 0 {
		return nil, fmt.Errorf("layout: row %dB cannot hold one granule+redundancy unit (%d)", rowBytes, unit)
	}
	payload := granulesPerRow * uint64(geo.GranuleBytes)
	rows := totalBytes / uint64(rowBytes)
	return &RowLocalMapper{
		geo:          geo,
		rowBytes:     uint64(rowBytes),
		payloadBytes: payload,
		redPerRow:    granulesPerRow * uint64(geo.RedBlockBytes),
		dataBytes:    rows * payload,
	}, nil
}

// Name identifies the layout.
func (m *RowLocalMapper) Name() string { return "row-local" }

// Geometry reports the protection geometry.
func (m *RowLocalMapper) Geometry() Geometry { return m.geo }

// ProtectedBytes is the usable data capacity.
func (m *RowLocalMapper) ProtectedBytes() uint64 { return m.dataBytes }

// CarveoutBytes is the redundancy capacity.
func (m *RowLocalMapper) CarveoutBytes() uint64 {
	return m.dataBytes / m.payloadBytes * m.redPerRow
}

// DataPhys spreads the dense logical space over the payload region of each
// physical row.
func (m *RowLocalMapper) DataPhys(dataAddr uint64) uint64 {
	m.checkData(dataAddr)
	row := dataAddr / m.payloadBytes
	off := dataAddr % m.payloadBytes
	return row*m.rowBytes + off
}

// RedundancyAddr places granule g's redundancy in the tail of its own row.
func (m *RowLocalMapper) RedundancyAddr(dataAddr uint64) uint64 {
	m.checkData(dataAddr)
	row := dataAddr / m.payloadBytes
	off := dataAddr % m.payloadBytes
	granuleInRow := off / uint64(m.geo.GranuleBytes)
	return row*m.rowBytes + m.payloadBytes + granuleInRow*uint64(m.geo.RedBlockBytes)
}

// GranuleBase aligns down to the granule boundary; granules never span rows
// because the payload is a whole number of granules.
func (m *RowLocalMapper) GranuleBase(dataAddr uint64) uint64 {
	m.checkData(dataAddr)
	return dataAddr - dataAddr%uint64(m.geo.GranuleBytes)
}

func (m *RowLocalMapper) checkData(addr uint64) {
	if addr >= m.dataBytes {
		panic(fmt.Sprintf("layout: data address %#x beyond protected capacity %#x", addr, m.dataBytes))
	}
}

var (
	_ Mapper = (*LinearMapper)(nil)
	_ Mapper = (*RowLocalMapper)(nil)
)

// DefaultGeometry is the repository-wide default: 32B sectors, 128B lines,
// 256B protection granules, 32B redundancy blocks — a 1/8 redundancy ratio
// matching a (72,64)-per-word SEC-DED or RS(36,32) organization.
func DefaultGeometry() Geometry {
	return Geometry{SectorBytes: 32, LineBytes: 128, GranuleBytes: 256, RedBlockBytes: 32}
}

// Geometry1of16 halves the redundancy ratio: one 32B redundancy block
// covers 512B, matching an RS(34,32)-style organization.
func Geometry1of16() Geometry {
	return Geometry{SectorBytes: 32, LineBytes: 128, GranuleBytes: 512, RedBlockBytes: 32}
}
