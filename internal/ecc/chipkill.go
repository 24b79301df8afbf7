package ecc

import "fmt"

// Chipkill is a device-aware Reed–Solomon organization: the codeword's
// symbols are striped round-robin across DRAM devices, so one device owns
// n/devices symbols. A whole-device failure is then a burst of symbol
// errors at *known* positions once the failing device is identified, and
// the code's erasure capability (n-k erasures) recovers it even when the
// error count exceeds the blind correction radius t=(n-k)/2.
//
// With the repository default RS(36,32) over 9 devices, each device owns 4
// symbols: a dead device is 4 erasures — exactly the code's budget — so
// full chipkill-correct costs no extra redundancy beyond the 1/8 ratio,
// but only once the device is identified (e.g. by scrubbing or repeated
// detections). Blind decoding of a dead device is only guaranteed to
// *detect*.
//
// Geometry, encoding and blind decoding are the embedded RSSector's:
// blind Decode (no failed-device knowledge) corrects up to t random
// symbol errors.
type Chipkill struct {
	*RSSector
	devices int
}

// NewChipkill builds a chipkill organization: sectorBytes data symbols,
// paritySyms parity symbols, striped over devices. Every device must own
// at most n-k symbols (else a dead device exceeds the erasure budget) and
// the stripe must divide evenly.
func NewChipkill(sectorBytes, paritySyms, devices int) (*Chipkill, error) {
	s, err := NewRSSector(sectorBytes, paritySyms)
	if err != nil {
		return nil, err
	}
	n := s.rs.N()
	if devices <= 0 || n%devices != 0 {
		return nil, fmt.Errorf("ecc: %d devices do not evenly stripe %d symbols", devices, n)
	}
	perDevice := n / devices
	if perDevice > s.RedundancyBytes() {
		return nil, fmt.Errorf("ecc: device owns %d symbols but the code can only erase %d",
			perDevice, s.RedundancyBytes())
	}
	return &Chipkill{RSSector: s, devices: devices}, nil
}

// Name identifies the organization, e.g. "chipkill-rs-36/32 x9".
func (c *Chipkill) Name() string {
	return fmt.Sprintf("chipkill-rs-%d/%d x%d", c.rs.N(), c.rs.K(), c.devices)
}

// Devices reports the stripe width.
func (c *Chipkill) Devices() int { return c.devices }

// DeviceSymbols lists the codeword positions owned by a device.
func (c *Chipkill) DeviceSymbols(dev int) []int {
	if dev < 0 || dev >= c.devices {
		return nil
	}
	out := make([]int, 0, c.rs.N()/c.devices)
	for p := dev; p < c.rs.N(); p += c.devices {
		out = append(out, p)
	}
	return out
}

// DecodeWithDeadDevice decodes knowing device dev has failed: its symbol
// positions are treated as erasures, which recovers a whole-device loss
// (plus any budget left over for additional errors).
func (c *Chipkill) DecodeWithDeadDevice(sector, redundancy []byte, dev int) Result {
	positions := c.DeviceSymbols(dev)
	if positions == nil {
		return Detected
	}
	res, _ := c.rs.DecodeErasures(sector, redundancy, positions)
	return res
}

var _ SectorCodec = (*Chipkill)(nil)
