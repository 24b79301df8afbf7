package ecc

import "fmt"

// Tagged implements an Alias-Free Tagged ECC in the style of Implicit
// Memory Tagging (Sullivan et al., ISCA 2023): a memory-safety tag is
// folded into the ECC code space at zero storage cost. The tag symbols are
// treated as virtual data symbols of a Reed–Solomon codeword — they
// participate in parity generation but are never stored. On read, the
// checker re-inserts the pointer's asserted tag; a tag mismatch surfaces as
// symbol errors at the (known) virtual positions, which the decoder can
// distinguish from real data errors.
//
// Alias-freedom here means: in the absence of data errors, any tag mismatch
// produces a nonzero syndrome and is attributed to the tag — it is never
// silently "corrected" into the data. That holds whenever tagSyms <= T of
// the underlying code, because a pure tag mismatch is then within the
// code's correction radius and locates exactly at the virtual positions.
type Tagged struct {
	rs      *RS
	tagSyms int
	dataLen int
}

// TagResult classifies the outcome of a tagged check.
type TagResult int

const (
	// TagOK: no error, asserted tag matches the stored tag.
	TagOK TagResult = iota
	// TagOKCorrected: a data/parity error was corrected; the tag matches.
	TagOKCorrected
	// TagMismatch: the asserted tag provably differs from the stored tag
	// (memory-safety violation detected).
	TagMismatch
	// TagUncorrectable: errors exceed the code's capability; neither the
	// data nor the tag comparison is trustworthy.
	TagUncorrectable
)

// String renders the result for logs and tables.
func (t TagResult) String() string {
	switch t {
	case TagOK:
		return "tag-ok"
	case TagOKCorrected:
		return "tag-ok-corrected"
	case TagMismatch:
		return "tag-mismatch"
	case TagUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("TagResult(%d)", int(t))
	}
}

// NewTagged builds a tagged codec for dataLen-byte blocks with paritySyms
// stored parity bytes and tagSyms virtual tag bytes. tagSyms must not
// exceed the code's error-correction capability (paritySyms/2), which is
// what guarantees alias-free tag-mismatch identification.
func NewTagged(dataLen, paritySyms, tagSyms int) (*Tagged, error) {
	if tagSyms <= 0 {
		return nil, fmt.Errorf("ecc: tagged codec needs at least one tag symbol")
	}
	if tagSyms > paritySyms/2 {
		return nil, fmt.Errorf("ecc: %d tag symbols exceed correction capability of %d parity symbols",
			tagSyms, paritySyms)
	}
	rs, err := NewRS(tagSyms+dataLen+paritySyms, tagSyms+dataLen)
	if err != nil {
		return nil, err
	}
	return &Tagged{rs: rs, tagSyms: tagSyms, dataLen: dataLen}, nil
}

// Name identifies the codec, e.g. "aft-rs-38/32+t2".
func (t *Tagged) Name() string {
	return fmt.Sprintf("aft-rs-%d/%d+t%d", t.rs.n, t.dataLen, t.tagSyms)
}

// DataBytes reports the protected block size.
func (t *Tagged) DataBytes() int { return t.dataLen }

// ParityBytes reports the stored redundancy per block.
func (t *Tagged) ParityBytes() int { return t.rs.ParitySymbols() }

// TagBytes reports the virtual tag width.
func (t *Tagged) TagBytes() int { return t.tagSyms }

// Encode computes the stored parity for (tag, data). The tag is not stored;
// only the returned parity bytes are.
func (t *Tagged) Encode(data, tag []byte) []byte {
	return t.EncodeInto(make([]byte, 0, t.rs.ParitySymbols()), data, tag)
}

// EncodeInto appends the stored parity for (tag, data) to dst and returns
// the extended slice. The tag's parity is folded in from data positions
// 0..tagSyms-1 and the data's from the positions after, so no
// concatenation buffer is built and the call does not allocate when dst
// has capacity.
func (t *Tagged) EncodeInto(dst, data, tag []byte) []byte {
	if len(data) != t.dataLen || len(tag) != t.tagSyms {
		panic(fmt.Sprintf("ecc: tagged codec wants %dB data and %dB tag, got %dB/%dB",
			t.dataLen, t.tagSyms, len(data), len(tag)))
	}
	var rem [maxWords]uint64
	t.rs.fold(&rem, 0, tag)
	t.rs.fold(&rem, t.tagSyms, data)
	return t.rs.appendParity(dst, &rem)
}

// Check verifies data and parity under an asserted tag, correcting
// correctable data/parity errors in place.
func (t *Tagged) Check(data, parity, assertedTag []byte) TagResult {
	virtual := t.virtualWord(data, assertedTag)
	// Decode against copies: corrections made under a wrong tag assumption
	// must not leak back into the caller's buffers.
	parityCopy := make([]byte, len(parity))
	copy(parityCopy, parity)
	res, positions := t.rs.DecodeErasures(virtual, parityCopy, nil)
	switch res {
	case OK:
		return TagOK
	case Detected:
		return TagUncorrectable
	}
	// Corrected: if any corrected position falls in the virtual tag region
	// the stored tag differs from the asserted one.
	mismatch := false
	for _, pos := range positions {
		if pos < t.tagSyms {
			mismatch = true
			break
		}
	}
	if mismatch {
		// Do not commit corrections made under a wrong tag assumption; the
		// access is a safety violation and must not return "fixed" data.
		return TagMismatch
	}
	copy(data, virtual[t.tagSyms:])
	copy(parity, parityCopy)
	return TagOKCorrected
}

// virtualWord builds the tag++data virtual data word.
func (t *Tagged) virtualWord(data, tag []byte) []byte {
	if len(data) != t.dataLen || len(tag) != t.tagSyms {
		panic(fmt.Sprintf("ecc: tagged codec wants %dB data and %dB tag, got %dB/%dB",
			t.dataLen, t.tagSyms, len(data), len(tag)))
	}
	virtual := make([]byte, 0, t.tagSyms+t.dataLen)
	virtual = append(virtual, tag...)
	virtual = append(virtual, data...)
	return virtual
}
