package ecc

import "fmt"

// WordCode is a fixed-width binary block code over whole bytes — the shape
// shared by SECDED and SECDAEC — used to build sector codecs by
// interleaving independent codewords across a sector.
type WordCode interface {
	DataBits() int
	CheckBytes() int
	Encode(data []byte) []byte
	Decode(data, check []byte) Result
	// EncodeInto appends the check bytes to dst without allocating when dst
	// has capacity; Decode does not allocate.
	EncodeInto(dst, data []byte) []byte
}

// InterleavedSector protects a sector with consecutive independent
// codewords of an underlying word code.
type InterleavedSector struct {
	name       string
	code       WordCode
	sectorSize int
	words      int
	wordBytes  int
}

// NewInterleavedSector builds a sector codec over sectorBytes-byte sectors
// from the given word code. The word width must be byte-aligned and divide
// the sector.
func NewInterleavedSector(name string, code WordCode, sectorBytes int) (*InterleavedSector, error) {
	bits := code.DataBits()
	if bits%8 != 0 {
		return nil, fmt.Errorf("ecc: word width %d is not byte aligned", bits)
	}
	if (sectorBytes*8)%bits != 0 {
		return nil, fmt.Errorf("ecc: word width %d does not divide sector %dB", bits, sectorBytes)
	}
	return &InterleavedSector{
		name:       name,
		code:       code,
		sectorSize: sectorBytes,
		words:      sectorBytes * 8 / bits,
		wordBytes:  bits / 8,
	}, nil
}

// Name identifies the codec.
func (s *InterleavedSector) Name() string { return s.name }

// SectorBytes reports the protected sector size.
func (s *InterleavedSector) SectorBytes() int { return s.sectorSize }

// RedundancyBytes reports redundancy bytes per sector.
func (s *InterleavedSector) RedundancyBytes() int { return s.words * s.code.CheckBytes() }

// Encode computes per-word check bytes, concatenated in word order.
func (s *InterleavedSector) Encode(sector []byte) []byte {
	return s.EncodeInto(make([]byte, 0, s.RedundancyBytes()), sector)
}

// EncodeInto appends the sector's check bytes to dst and returns the
// extended slice; it does not allocate when dst has capacity.
func (s *InterleavedSector) EncodeInto(dst, sector []byte) []byte {
	if len(sector) != s.sectorSize {
		panic(fmt.Sprintf("ecc: sector size %d, want %d", len(sector), s.sectorSize))
	}
	for w := 0; w < s.words; w++ {
		dst = s.code.EncodeInto(dst, sector[w*s.wordBytes:(w+1)*s.wordBytes])
	}
	return dst
}

// Decode verifies each word, correcting in place; the sector result is the
// worst per-word result (Detected > Corrected > OK). It does not allocate.
func (s *InterleavedSector) Decode(sector, redundancy []byte) Result {
	if len(sector) != s.sectorSize || len(redundancy) != s.RedundancyBytes() {
		panic("ecc: interleaved decode buffer size mismatch")
	}
	worst := OK
	cb := s.code.CheckBytes()
	for w := 0; w < s.words; w++ {
		word := sector[w*s.wordBytes : (w+1)*s.wordBytes]
		chk := redundancy[w*cb : (w+1)*cb]
		if r := s.code.Decode(word, chk); r > worst {
			worst = r
		}
	}
	return worst
}

// NewSECDEDSector builds a sector codec over sectorBytes-byte sectors from
// interleaved wordBits-wide SEC-DED codewords, e.g. "secded-72/64": with
// 64-bit words and 32-byte sectors, 4 redundancy bytes per sector (a 1/8
// ratio) and tolerance of one bit error per 8-byte word. wordBits must be
// byte-aligned and divide sectorBytes*8.
func NewSECDEDSector(sectorBytes, wordBits int) (*InterleavedSector, error) {
	code := NewSECDED(wordBits)
	name := fmt.Sprintf("secded-%d/%d", wordBits+code.CheckBits(), wordBits)
	return NewInterleavedSector(name, code, sectorBytes)
}

// NewSECDAECSector builds the SEC-DAEC organization over 32B sectors with
// 64-bit words: adjacent-double correction at SEC-DED-class redundancy.
func NewSECDAECSector(sectorBytes, wordBits int) (*InterleavedSector, error) {
	code, err := NewSECDAEC(wordBits)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("secdaec-%d/%d", wordBits+code.CheckBits(), wordBits)
	return NewInterleavedSector(name, code, sectorBytes)
}

var (
	_ SectorCodec = (*InterleavedSector)(nil)
	_ WordCode    = (*SECDAEC)(nil)
	_ WordCode    = (*SECDED)(nil)
)
