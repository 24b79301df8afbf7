package layout

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	good := DefaultGeometry()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Geometry{
		{SectorBytes: 0, LineBytes: 128, GranuleBytes: 256, RedBlockBytes: 32},
		{SectorBytes: 32, LineBytes: 100, GranuleBytes: 256, RedBlockBytes: 32},
		{SectorBytes: 32, LineBytes: 128, GranuleBytes: 192, RedBlockBytes: 32},
		{SectorBytes: 32, LineBytes: 128, GranuleBytes: 128, RedBlockBytes: 256},
		{SectorBytes: 32, LineBytes: 128, GranuleBytes: 256, RedBlockBytes: 7},
		{SectorBytes: 32, LineBytes: 128, GranuleBytes: 1024, RedBlockBytes: 512},
	}
	for i, g := range bads {
		if err := g.Validate(); err == nil {
			t.Fatalf("bad geometry %d accepted: %+v", i, g)
		}
	}
}

func TestGeometryDerived(t *testing.T) {
	g := DefaultGeometry()
	if g.RedundancyRatio() != 0.125 {
		t.Fatalf("ratio = %v", g.RedundancyRatio())
	}
	if g.SectorsPerGranule() != 8 {
		t.Fatalf("sectors/granule = %d", g.SectorsPerGranule())
	}
	if g.SectorsPerLine() != 4 {
		t.Fatalf("sectors/line = %d", g.SectorsPerLine())
	}
	if Geometry1of16().RedundancyRatio() != 0.0625 {
		t.Fatal("1/16 geometry ratio wrong")
	}
}

const testMem = 1 << 26 // 64 MiB

func mappers(t *testing.T) []Mapper {
	t.Helper()
	lin, err := NewLinearMapper(testMem, DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	row, err := NewRowLocalMapper(testMem, 2048, DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	return []Mapper{lin, row}
}

func TestCapacityAccounting(t *testing.T) {
	for _, m := range mappers(t) {
		data := m.ProtectedBytes()
		carve := m.CarveoutBytes()
		if data == 0 || carve == 0 {
			t.Fatalf("%s: zero capacity", m.Name())
		}
		if data+carve > testMem {
			t.Fatalf("%s: data %d + carve %d exceeds memory %d", m.Name(), data, carve, testMem)
		}
		ratio := float64(carve) / float64(data)
		if ratio != 0.125 {
			t.Fatalf("%s: carve ratio %v, want 0.125", m.Name(), ratio)
		}
	}
}

func TestDataAndRedundancyRangesDisjoint(t *testing.T) {
	for _, m := range mappers(t) {
		m := m
		geo := m.Geometry()
		redSeen := make(map[uint64]bool)
		// Walk every sector of the first 1 MiB and a tail slice.
		walk := func(start, end uint64) {
			for a := start; a < end; a += uint64(geo.SectorBytes) {
				phys := m.DataPhys(a)
				red := m.RedundancyAddr(a)
				if phys == red {
					t.Fatalf("%s: data %#x maps onto its redundancy %#x", m.Name(), a, red)
				}
				redSeen[red] = true
			}
		}
		walk(0, 1<<20)
		walk(m.ProtectedBytes()-1<<16, m.ProtectedBytes())
		// No data physical address may collide with any seen redundancy
		// address.
		for a := uint64(0); a < 1<<20; a += uint64(geo.SectorBytes) {
			if redSeen[m.DataPhys(a)] {
				t.Fatalf("%s: data phys %#x collides with redundancy space", m.Name(), m.DataPhys(a))
			}
		}
	}
}

func TestRedundancySharedExactlyPerGranule(t *testing.T) {
	for _, m := range mappers(t) {
		geo := m.Geometry()
		spg := uint64(geo.SectorsPerGranule())
		// All sectors of one granule share a redundancy block; adjacent
		// granules use different blocks.
		for g := uint64(0); g < 64; g++ {
			base := g * uint64(geo.GranuleBytes)
			want := m.RedundancyAddr(base)
			for s := uint64(0); s < spg; s++ {
				a := base + s*uint64(geo.SectorBytes)
				if m.RedundancyAddr(a) != want {
					t.Fatalf("%s: sector %d of granule %d has different redundancy", m.Name(), s, g)
				}
				if m.GranuleBase(a) != base {
					t.Fatalf("%s: granule base of %#x = %#x, want %#x", m.Name(), a, m.GranuleBase(a), base)
				}
			}
			next := m.RedundancyAddr(base + uint64(geo.GranuleBytes))
			if next == want {
				t.Fatalf("%s: granules %d and %d share a redundancy block", m.Name(), g, g+1)
			}
		}
	}
}

func TestDataPhysInjective(t *testing.T) {
	for _, m := range mappers(t) {
		m := m
		f := func(a, b uint32) bool {
			geo := m.Geometry()
			x := (uint64(a) * uint64(geo.SectorBytes)) % m.ProtectedBytes()
			y := (uint64(b) * uint64(geo.SectorBytes)) % m.ProtectedBytes()
			if x == y {
				return true
			}
			return m.DataPhys(x) != m.DataPhys(y)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
}

func TestRowLocalRedundancySameRow(t *testing.T) {
	const rowBytes = 2048
	m, err := NewRowLocalMapper(testMem, rowBytes, DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 1<<20; a += 32 {
		dataRow := m.DataPhys(a) / rowBytes
		redRow := m.RedundancyAddr(a) / rowBytes
		if dataRow != redRow {
			t.Fatalf("addr %#x: data row %d, redundancy row %d", a, dataRow, redRow)
		}
	}
}

func TestLinearRedundancyInCarveout(t *testing.T) {
	m, err := NewLinearMapper(testMem, DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 1<<20; a += 32 {
		if red := m.RedundancyAddr(a); red < m.ProtectedBytes() {
			t.Fatalf("redundancy %#x inside the data region", red)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, m := range mappers(t) {
		m := m
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: out-of-range data address must panic", m.Name())
				}
			}()
			m.DataPhys(m.ProtectedBytes())
		}()
	}
}

func TestConstructorRejections(t *testing.T) {
	if _, err := NewLinearMapper(100, DefaultGeometry()); err == nil {
		t.Fatal("tiny memory must be rejected")
	}
	if _, err := NewRowLocalMapper(testMem, 64, DefaultGeometry()); err == nil {
		t.Fatal("row smaller than granule+red must be rejected")
	}
	if _, err := NewRowLocalMapper(testMem, 0, DefaultGeometry()); err == nil {
		t.Fatal("zero row size must be rejected")
	}
	bad := Geometry{SectorBytes: 32, LineBytes: 100, GranuleBytes: 256, RedBlockBytes: 32}
	if _, err := NewLinearMapper(testMem, bad); err == nil {
		t.Fatal("invalid geometry must be rejected by the linear mapper")
	}
	if _, err := NewRowLocalMapper(testMem, 2048, bad); err == nil {
		t.Fatal("invalid geometry must be rejected by the row-local mapper")
	}
}

func TestGranuleBaseAligned(t *testing.T) {
	for _, m := range mappers(t) {
		m := m
		f := func(raw uint32) bool {
			geo := m.Geometry()
			a := (uint64(raw) * 32) % m.ProtectedBytes()
			base := m.GranuleBase(a)
			return base%uint64(geo.GranuleBytes) == 0 && base <= a && a-base < uint64(geo.GranuleBytes)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
}

func TestRowLocal1of16Geometry(t *testing.T) {
	m, err := NewRowLocalMapper(testMem, 2048, Geometry1of16())
	if err != nil {
		t.Fatal(err)
	}
	// Carve ratio must match the geometry's redundancy ratio.
	ratio := float64(m.CarveoutBytes()) / float64(m.ProtectedBytes())
	if ratio != 0.0625 {
		t.Fatalf("carve ratio = %v, want 1/16", ratio)
	}
	// Redundancy still lands in the same row.
	for a := uint64(0); a < 1<<18; a += 32 {
		if m.DataPhys(a)/2048 != m.RedundancyAddr(a)/2048 {
			t.Fatalf("addr %#x: redundancy in a different row", a)
		}
	}
}

func TestGranuleCoverageIsCompleteAndDisjoint(t *testing.T) {
	// Every redundancy block covers exactly SectorsPerGranule sectors, and
	// blocks partition the data space.
	for _, m := range mappers(t) {
		geo := m.Geometry()
		coverage := map[uint64]int{}
		limit := uint64(1 << 18)
		for a := uint64(0); a < limit; a += uint64(geo.SectorBytes) {
			coverage[m.RedundancyAddr(a)]++
		}
		for red, n := range coverage {
			if n != geo.SectorsPerGranule() {
				t.Fatalf("%s: block %#x covers %d sectors, want %d",
					m.Name(), red, n, geo.SectorsPerGranule())
			}
		}
	}
}
