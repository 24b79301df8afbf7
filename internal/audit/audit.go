// Package audit is the simulator's opt-in invariant checker. A Checker is
// one of the two subscribers of the gpu machine's observer (the other is
// the time-resolved probe tracks): the observer owns the one
// observation slot each substrate layer exposes (sim.Engine.SetStepHook,
// dram.DRAM.SetHook, xbar.Crossbar.SetHook), and the L2 banks call it
// directly for the machine's own token, MSHR, controller-read, writeback
// and drain events; it forwards each event to the Checker, which
// verifies, while the simulation runs:
//
//   - tick monotonicity: the event engine never steps backwards in time;
//   - transaction conservation: every sector an SM requests is delivered
//     exactly once (no losses, no duplicates), per request token;
//   - controller pairing: every protect.Scheme.ReadMiss completes exactly
//     once, never before it was issued;
//   - L2 MSHR pairing: entries allocate, fetch, fill, and release in
//     matched quadruples within the configured capacity (leaks surface at
//     drain);
//   - DRAM legality: requests are serviced only after being submitted and
//     only by ready banks, the scheduler's open-row bookkeeping matches a
//     shadow reconstruction (row hit/miss/conflict counts must agree), and
//     refresh closes rows;
//   - byte conservation: per-class DRAM byte totals and crossbar byte
//     totals must equal the sums the checker observed first-hand;
//   - full drain: at end of simulation no tokens, controller reads, MSHR
//     entries, queued DRAM requests, or undelivered engine events remain.
//
// The checker is deliberately not wired when auditing is off: with no
// subscriber the machine attaches no observer, every slot stays nil, and
// the disabled cost is one branch per event. A Checker serves exactly one
// single-threaded simulation.
package audit

import (
	"fmt"

	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// Violation is one invariant failure, identified by a stable rule name.
type Violation struct {
	Cycle  sim.Cycle
	Rule   string
	Detail string
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s", v.Cycle, v.Rule, v.Detail)
}

// maxRecorded bounds the violations kept verbatim; the total count keeps
// incrementing past it so a report never understates the damage.
const maxRecorded = 64

// token is one in-flight SM↔L2 transaction (read or store).
type token struct {
	kind      string
	sm        int
	line      uint64
	remaining uint64
	issued    sim.Cycle
}

// schemeCall is one outstanding protect.Scheme.ReadMiss.
type schemeCall struct {
	line   uint64
	mask   uint64
	class  mem.Class
	issued sim.Cycle
}

type mshrKey struct {
	bank int
	line uint64
}

// mshrShadow mirrors one L2 bank MSHR entry's fetch/fill progress.
type mshrShadow struct {
	fetched uint64
	filled  uint64
}

type bankKey struct {
	ch, bk int
}

// bankShadow reconstructs a DRAM bank's scheduler-visible state from the
// hook stream alone.
type bankShadow struct {
	row    int64
	queued int
}

// Checker accumulates invariant state for one simulation. All methods are
// nil-receiver safe so optional call sites need no guards.
type Checker struct {
	violations []Violation
	total      int

	// Engine.
	lastStep sim.Cycle
	stepped  bool

	// SM↔L2 tokens.
	nextToken uint64
	tokens    map[uint64]token

	// Controller reads.
	nextCall uint64
	calls    map[uint64]schemeCall

	// L2 MSHR shadow.
	mshr    map[mshrKey]mshrShadow
	mshrCap int

	// DRAM shadow.
	banks                         map[bankKey]*bankShadow
	classBytes                    map[mem.Class]uint64
	readBytes, writeBytes         uint64
	submitted, serviced           uint64
	rowHits, rowMisses, rowConfls uint64
	refreshes                     uint64

	// Crossbars.
	xbarBytes map[string]uint64
}

// NewChecker returns an empty checker for one simulation.
func NewChecker() *Checker {
	return &Checker{
		tokens:     make(map[uint64]token),
		calls:      make(map[uint64]schemeCall),
		mshr:       make(map[mshrKey]mshrShadow),
		banks:      make(map[bankKey]*bankShadow),
		classBytes: make(map[mem.Class]uint64),
		xbarBytes:  make(map[string]uint64),
	}
}

// SetMSHRCapacity arms the per-bank MSHR occupancy check (0 disables it).
func (c *Checker) SetMSHRCapacity(n int) {
	if c == nil {
		return
	}
	c.mshrCap = n
}

func (c *Checker) violatef(at sim.Cycle, rule, format string, args ...any) {
	c.total++
	if len(c.violations) < maxRecorded {
		c.violations = append(c.violations, Violation{
			Cycle:  at,
			Rule:   rule,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// Violations returns the recorded violations (capped at an internal limit;
// see Total for the full count).
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.violations
}

// Total reports how many violations occurred, including any past the
// recording cap.
func (c *Checker) Total() int {
	if c == nil {
		return 0
	}
	return c.total
}

// Err summarizes the violations as an error, or nil when the simulation
// was clean.
func (c *Checker) Err() error {
	if c == nil || c.total == 0 {
		return nil
	}
	first := c.violations[0]
	if c.total == 1 {
		return fmt.Errorf("audit: 1 violation: %s", first)
	}
	return fmt.Errorf("audit: %d violations, first: %s", c.total, first)
}

// EngineStep implements the sim.Engine step hook: time must never move
// backwards.
func (c *Checker) EngineStep(at sim.Cycle) {
	if c == nil {
		return
	}
	if c.stepped && at < c.lastStep {
		c.violatef(at, "tick-monotonic", "event at cycle %d after cycle %d", at, c.lastStep)
	}
	c.lastStep = at
	c.stepped = true
}

// ReadIssued opens a read token for an SM line request.
func (c *Checker) ReadIssued(now sim.Cycle, sm int, lineAddr, mask uint64) uint64 {
	return c.open(now, "read", sm, lineAddr, mask)
}

// StoreIssued opens a store token for an SM line-store request.
func (c *Checker) StoreIssued(now sim.Cycle, sm int, lineAddr, mask uint64) uint64 {
	return c.open(now, "store", sm, lineAddr, mask)
}

func (c *Checker) open(now sim.Cycle, kind string, sm int, lineAddr, mask uint64) uint64 {
	if c == nil {
		return 0
	}
	if mask == 0 {
		c.violatef(now, "token-mask", "%s issued with empty mask for line %#x", kind, lineAddr)
	}
	c.nextToken++
	c.tokens[c.nextToken] = token{kind: kind, sm: sm, line: lineAddr, remaining: mask, issued: now}
	return c.nextToken
}

// Delivered closes (part of) a token: the delivered sectors must still be
// outstanding, and a fully-delivered token retires.
func (c *Checker) Delivered(now sim.Cycle, tok uint64, mask uint64) {
	if c == nil {
		return
	}
	t, ok := c.tokens[tok]
	if !ok {
		c.violatef(now, "token-unknown", "delivery for unknown or retired token %d (mask %#x)", tok, mask)
		return
	}
	if mask == 0 || mask&^t.remaining != 0 {
		c.violatef(now, "token-mask",
			"%s token %d (sm %d line %#x) delivered mask %#x but %#x is outstanding",
			t.kind, tok, t.sm, t.line, mask, t.remaining)
	}
	if now < t.issued {
		c.violatef(now, "token-time", "%s token %d delivered at %d before issue at %d", t.kind, tok, now, t.issued)
	}
	t.remaining &^= mask
	if t.remaining == 0 {
		delete(c.tokens, tok)
	} else {
		c.tokens[tok] = t
	}
}

// ReadMissIssued opens a controller-read call and returns its token.
func (c *Checker) ReadMissIssued(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class) uint64 {
	if c == nil {
		return 0
	}
	if mask == 0 {
		c.violatef(now, "scheme-read-mask", "ReadMiss with empty mask for line %#x", lineAddr)
	}
	c.nextCall++
	c.calls[c.nextCall] = schemeCall{line: lineAddr, mask: mask, class: class, issued: now}
	return c.nextCall
}

// ReadMissDone closes a controller-read call exactly once.
func (c *Checker) ReadMissDone(at sim.Cycle, tok uint64) {
	if c == nil {
		return
	}
	call, ok := c.calls[tok]
	if !ok {
		c.violatef(at, "scheme-done-twice", "ReadMiss completion for unknown or already-completed call %d", tok)
		return
	}
	if at < call.issued {
		c.violatef(at, "scheme-done-time",
			"ReadMiss for line %#x completed at %d before issue at %d", call.line, at, call.issued)
	}
	delete(c.calls, tok)
}

// WritebackIssued checks a writeback handed to the controller.
func (c *Checker) WritebackIssued(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	if c == nil {
		return
	}
	if dirtyMask == 0 {
		c.violatef(now, "scheme-writeback-mask", "Writeback with empty dirty mask for line %#x", lineAddr)
	}
}

// MSHRAlloc records a new L2 bank MSHR entry; live counts the bank's
// entries including this one.
func (c *Checker) MSHRAlloc(now sim.Cycle, bank int, lineAddr uint64, live int) {
	if c == nil {
		return
	}
	key := mshrKey{bank: bank, line: lineAddr}
	if _, ok := c.mshr[key]; ok {
		c.violatef(now, "mshr-double-alloc", "bank %d line %#x allocated twice", bank, lineAddr)
		return
	}
	if c.mshrCap > 0 && live > c.mshrCap {
		c.violatef(now, "mshr-capacity", "bank %d holds %d entries, capacity %d", bank, live, c.mshrCap)
	}
	c.mshr[key] = mshrShadow{}
}

// MSHRFetch records sectors requested from the controller for an entry.
func (c *Checker) MSHRFetch(now sim.Cycle, bank int, lineAddr, mask uint64) {
	if c == nil {
		return
	}
	key := mshrKey{bank: bank, line: lineAddr}
	e, ok := c.mshr[key]
	if !ok {
		c.violatef(now, "mshr-fetch-unknown", "bank %d fetch %#x for unallocated line %#x", bank, mask, lineAddr)
		return
	}
	if mask == 0 || mask&e.fetched != 0 {
		c.violatef(now, "mshr-fetch-mask",
			"bank %d line %#x fetch mask %#x overlaps already-fetched %#x", bank, lineAddr, mask, e.fetched)
	}
	e.fetched |= mask
	c.mshr[key] = e
}

// MSHRFill records sectors delivered by the controller for an entry.
func (c *Checker) MSHRFill(now sim.Cycle, bank int, lineAddr, mask uint64) {
	if c == nil {
		return
	}
	key := mshrKey{bank: bank, line: lineAddr}
	e, ok := c.mshr[key]
	if !ok {
		c.violatef(now, "mshr-fill-unknown", "bank %d fill %#x for unallocated line %#x", bank, mask, lineAddr)
		return
	}
	if mask == 0 || mask&^(e.fetched&^e.filled) != 0 {
		c.violatef(now, "mshr-fill-mask",
			"bank %d line %#x fill mask %#x not within outstanding fetches (fetched %#x filled %#x)",
			bank, lineAddr, mask, e.fetched, e.filled)
	}
	e.filled |= mask
	c.mshr[key] = e
}

// MSHRRelease records an entry retiring; all fetched sectors must have
// filled.
func (c *Checker) MSHRRelease(now sim.Cycle, bank int, lineAddr uint64) {
	if c == nil {
		return
	}
	key := mshrKey{bank: bank, line: lineAddr}
	e, ok := c.mshr[key]
	if !ok {
		c.violatef(now, "mshr-release-unknown", "bank %d released unallocated line %#x", bank, lineAddr)
		return
	}
	if e.filled != e.fetched {
		c.violatef(now, "mshr-release-incomplete",
			"bank %d line %#x released with fetched %#x but filled %#x", bank, lineAddr, e.fetched, e.filled)
	}
	delete(c.mshr, key)
}

func (c *Checker) shadowBank(ch, bk int) *bankShadow {
	key := bankKey{ch: ch, bk: bk}
	b, ok := c.banks[key]
	if !ok {
		b = &bankShadow{row: -1}
		c.banks[key] = b
	}
	return b
}

// Submitted implements dram.Hook.
func (c *Checker) Submitted(now sim.Cycle, req mem.Request, ch, bk int, _ int64) {
	if c == nil {
		return
	}
	if req.Bytes <= 0 {
		c.violatef(now, "dram-bytes", "request %s with non-positive size", req)
	}
	c.submitted++
	c.shadowBank(ch, bk).queued++
	c.classBytes[req.Class] += uint64(req.Bytes)
	if req.Write {
		c.writeBytes += uint64(req.Bytes)
	} else {
		c.readBytes += uint64(req.Bytes)
	}
}

// Serviced implements dram.Hook: the bank must be ready, must have queued
// work, and its open-row state must match the shadow reconstruction.
func (c *Checker) Serviced(now sim.Cycle, req mem.Request, ch, bk int, row, openBefore int64, readyBefore sim.Cycle) {
	if c == nil {
		return
	}
	c.serviced++
	b := c.shadowBank(ch, bk)
	if b.queued <= 0 {
		c.violatef(now, "dram-queue", "ch %d bank %d serviced %s with empty shadow queue", ch, bk, req)
	} else {
		b.queued--
	}
	if readyBefore > now {
		c.violatef(now, "dram-busy", "ch %d bank %d dispatched while busy until %d", ch, bk, readyBefore)
	}
	if openBefore != b.row {
		c.violatef(now, "dram-row-state",
			"ch %d bank %d scheduler saw open row %d, shadow says %d", ch, bk, openBefore, b.row)
	}
	switch {
	case b.row == row:
		c.rowHits++
	case b.row < 0:
		c.rowMisses++
	default:
		c.rowConfls++
	}
	b.row = row
}

// Refreshed implements dram.Hook: refresh closes every row on the channel.
func (c *Checker) Refreshed(_ sim.Cycle, ch int) {
	if c == nil {
		return
	}
	c.refreshes++
	for key, b := range c.banks {
		if key.ch == ch {
			b.row = -1
		}
	}
}

// XbarTransfer records one crossbar message; delivery can never beat the
// fabric latency.
func (c *Checker) XbarTransfer(name string, at, deliver sim.Cycle, bytes int, latency sim.Cycle) {
	if c == nil {
		return
	}
	if bytes <= 0 {
		c.violatef(at, "xbar-bytes", "%s transfer of %d bytes", name, bytes)
	}
	if deliver < at+latency {
		c.violatef(at, "xbar-latency", "%s delivery at %d beats latency %d from %d", name, deliver, latency, at)
	}
	c.xbarBytes[name] += uint64(bytes)
}

// CacheViolation records a tag-store consistency failure reported by
// cache.CheckConsistency.
func (c *Checker) CacheViolation(now sim.Cycle, err error) {
	if c == nil || err == nil {
		return
	}
	c.violatef(now, "cache-state", "%v", err)
}

// BankDrained verifies one L2 bank is empty at end of simulation: no MSHR
// entries and no parked (MSHR-stalled) requests.
func (c *Checker) BankDrained(now sim.Cycle, bank, liveMSHRs, waiting int) {
	if c == nil {
		return
	}
	if liveMSHRs != 0 {
		c.violatef(now, "mshr-leak", "bank %d ends with %d live MSHR entries", bank, liveMSHRs)
	}
	if waiting != 0 {
		c.violatef(now, "mshr-leak", "bank %d ends with %d requests parked on MSHR backpressure", bank, waiting)
	}
	for key, e := range c.mshr {
		if key.bank == bank {
			c.violatef(now, "mshr-leak",
				"bank %d line %#x never released (fetched %#x filled %#x)", bank, key.line, e.fetched, e.filled)
		}
	}
}

// FinishSim runs the end-of-simulation drain checks: no outstanding SM
// transactions, no unanswered controller reads, no undelivered events.
func (c *Checker) FinishSim(now sim.Cycle, outstanding, pendingEvents int) {
	if c == nil {
		return
	}
	if outstanding != 0 {
		c.violatef(now, "sim-drain", "%d SM transactions still outstanding", outstanding)
	}
	if pendingEvents != 0 {
		c.violatef(now, "sim-drain", "%d engine events still queued", pendingEvents)
	}
	for tok, t := range c.tokens {
		c.violatef(now, "token-leak",
			"%s token %d (sm %d line %#x) never fully delivered; mask %#x outstanding",
			t.kind, tok, t.sm, t.line, t.remaining)
	}
	for tok, call := range c.calls {
		c.violatef(now, "scheme-done-missing",
			"ReadMiss %d for line %#x (mask %#x, class %s, issued %d) never completed",
			tok, call.line, call.mask, call.class, call.issued)
	}
}

// FinishDRAM cross-checks the checker's first-hand accounting against the
// memory system's own counters: request and refresh counts, per-class and
// read/write byte totals, row hit/miss/conflict classification, and empty
// queues.
func (c *Checker) FinishDRAM(now sim.Cycle, st *stats.Counters) {
	if c == nil {
		return
	}
	if c.submitted != c.serviced {
		c.violatef(now, "dram-drain", "%d requests submitted but %d serviced", c.submitted, c.serviced)
	}
	for key, b := range c.banks {
		if b.queued != 0 {
			c.violatef(now, "dram-drain", "ch %d bank %d shadow queue ends with %d requests", key.ch, key.bk, b.queued)
		}
	}
	check := func(name string, got, want uint64) {
		if got != want {
			c.violatef(now, "dram-stats", "counter %q is %d, checker observed %d", name, got, want)
		}
	}
	check("requests", st.Get("requests"), c.submitted)
	check("refreshes", st.Get("refreshes"), c.refreshes)
	check("bytes_read", st.Get("bytes_read"), c.readBytes)
	check("bytes_written", st.Get("bytes_written"), c.writeBytes)
	check("row_hits", st.Get("row_hits"), c.rowHits)
	check("row_misses", st.Get("row_misses"), c.rowMisses)
	check("row_conflicts", st.Get("row_conflicts"), c.rowConfls)
	for _, class := range mem.Classes() {
		check("bytes_"+class.String(), st.Get("bytes_"+class.String()), c.classBytes[class])
	}
}

// FinishXbar cross-checks one crossbar's byte counter against the hook
// stream.
func (c *Checker) FinishXbar(now sim.Cycle, name string, totalBytes uint64) {
	if c == nil {
		return
	}
	if got := c.xbarBytes[name]; got != totalBytes {
		c.violatef(now, "xbar-bytes", "%s fabric reports %d bytes, checker observed %d", name, totalBytes, got)
	}
}
