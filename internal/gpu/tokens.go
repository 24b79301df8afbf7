package gpu

import (
	"math/bits"

	"cachecraft/internal/sim"
)

// l2Token tracks one SM→L2 transaction (a line read or store) from issue
// through its last delivered sector batch. Tokens live in the machine's
// pooled slab so the request/response path schedules no closures: the bank
// responds with a token index, and deliverHandler routes the batch back to
// the owning SM. Index 0 is a reserved sentinel.
type l2Token struct {
	lineAddr  uint64
	remaining uint64 // sectors not yet delivered
	audTok    uint64 // audit-layer transaction token
	smID      int32
	recIdx    int32 // owning smAccess slot for stores; -1 otherwise
	write     bool
	next      int32
}

func (m *Machine) allocToken() int32 {
	idx := m.tokFree
	if idx == 0 {
		if len(m.tokens) == 0 {
			m.tokens = append(m.tokens, l2Token{})
		}
		m.tokens = append(m.tokens, l2Token{})
		return int32(len(m.tokens) - 1)
	}
	m.tokFree = m.tokens[idx].next
	return idx
}

func (m *Machine) freeToken(idx int32) {
	m.tokens[idx].next = m.tokFree
	m.tokFree = idx
}

// respondToken is the bank's response path: it charges the L2→SM data hop
// and schedules the delivery. Banks may respond more than once per token,
// each time with a disjoint sector mask; the masks union to the requested
// mask.
func (m *Machine) respondToken(at sim.Cycle, ti int32, got uint64) {
	t := &m.tokens[ti]
	bankIdx := m.bankIndexFor(t.lineAddr)
	bytes := 8 // store ack
	if !t.write {
		bytes = bits.OnesCount64(got) * m.cfg.L2.SectorBytes
	}
	deliver := m.respNet.Transfer(at, bankIdx, int(t.smID), bytes)
	m.eng.Post(deliver, (*deliverHandler)(m), uint64(uint32(ti)), got)
}

// deliverHandler completes one delivered sector batch at the SM: audit
// bookkeeping, outstanding accounting, then the SM's load-response or
// store-completion path. The token is recycled on its last batch.
type deliverHandler Machine

func (h *deliverHandler) OnEvent(dn sim.Cycle, a0, a1 uint64) {
	m := (*Machine)(h)
	ti := int32(uint32(a0))
	got := a1
	t := &m.tokens[ti]
	if m.obs != nil {
		m.obs.audit.Delivered(dn, t.audTok, got)
	}
	t.remaining &^= got
	last := t.remaining == 0
	if last {
		m.outstanding--
	}
	smID, recIdx, write, lineAddr := t.smID, t.recIdx, t.write, t.lineAddr
	if last {
		m.freeToken(ti)
	}
	s := m.sms[smID]
	if write {
		s.completeSectorsIdx(dn, recIdx, bits.OnesCount64(got))
	} else {
		s.onLoadResponse(dn, lineAddr, got)
	}
}
