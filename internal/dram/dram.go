// Package dram models a GDDR6-like GPU memory system: multiple channels,
// banks with open-row policy, FR-FCFS-style scheduling, and a
// bandwidth-limited data bus per channel. Timing is first-order — the
// parameters that matter for the protection study are row hit vs miss cost
// and bus occupancy per burst, not the full DDR state machine.
package dram

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// Config sizes and times the memory system. All latencies are in core
// cycles.
type Config struct {
	Channels        int
	BanksPerChannel int
	RowBytes        int
	// ChannelInterleaveBytes is the stripe width across channels.
	ChannelInterleaveBytes int

	TRCD   sim.Cycle // activate → column command
	TRP    sim.Cycle // precharge
	TCAS   sim.Cycle // column access
	TBurst sim.Cycle // data bus occupancy per 32B transfer
	TCmd   sim.Cycle // command-issue gap: one command per TCmd per channel

	// Refresh: every TREFI cycles the whole channel stalls for TRFC and
	// all rows close. TREFI of 0 disables refresh.
	TREFI sim.Cycle
	TRFC  sim.Cycle

	// SchedulerWindow is how deep FR-FCFS looks for a row hit.
	SchedulerWindow int
}

// Upper bounds on the sizes New allocates for: every bank of every
// channel gets its first queue slots up front, so an absurd geometry
// would ask for gigabytes before simulating anything. A channel's banks
// fit one 64-bit mask word.
const (
	MaxChannels        = 128
	MaxBanksPerChannel = 64
	MaxSchedulerWindow = 128
)

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.BanksPerChannel <= 0 || c.RowBytes <= 0:
		return fmt.Errorf("dram: sizes must be positive: %+v", c)
	case c.Channels > MaxChannels:
		return fmt.Errorf("dram: %d channels exceeds %d", c.Channels, MaxChannels)
	case c.BanksPerChannel > MaxBanksPerChannel:
		return fmt.Errorf("dram: %d banks per channel exceeds %d", c.BanksPerChannel, MaxBanksPerChannel)
	case c.SchedulerWindow > MaxSchedulerWindow:
		return fmt.Errorf("dram: scheduler window %d exceeds %d", c.SchedulerWindow, MaxSchedulerWindow)
	case c.ChannelInterleaveBytes <= 0:
		return fmt.Errorf("dram: channel interleave must be positive")
	case c.SchedulerWindow <= 0 || c.TCmd <= 0:
		return fmt.Errorf("dram: scheduler window and command gap must be positive")
	case c.TREFI > 0 && c.TRFC <= 0:
		return fmt.Errorf("dram: refresh enabled but TRFC is zero")
	case c.TREFI > 0 && c.TRFC >= c.TREFI:
		return fmt.Errorf("dram: TRFC %d must be below TREFI %d", c.TRFC, c.TREFI)
	}
	return nil
}

// DefaultConfig models a mid-size GDDR6 part at a 1:1 core:memory clock
// abstraction.
func DefaultConfig() Config {
	return Config{
		Channels:               8,
		BanksPerChannel:        16,
		RowBytes:               2048,
		ChannelInterleaveBytes: 256,
		TRCD:                   24,
		TRP:                    24,
		TCAS:                   24,
		TBurst:                 4,
		TCmd:                   2,
		TREFI:                  3900,
		TRFC:                   350,
		SchedulerWindow:        16,
	}
}

// initialQueue is each bank queue's preallocated capacity.
const initialQueue = 16

// pendingReq is one queued request. Queues hold thousands of them while a
// run drains its dirty lines, so the request's fields are packed in.
type pendingReq struct {
	addr    uint64
	arrival sim.Cycle
	row     int64 // decoded once at submit; FR-FCFS scans compare it often
	// done completes the request when set: it is posted as
	// done.OnEvent(finish, arg, 0).
	done  sim.Handler
	arg   uint64
	bytes int32
	class uint8
	write bool
}

// request rebuilds the request as submitted (for the hook).
func (pr *pendingReq) request() mem.Request {
	return mem.Request{Addr: pr.addr, Write: pr.write, Bytes: int(pr.bytes), Class: mem.Class(pr.class)}
}

// bank holds its own FIFO request queue (with a head index so dequeues are
// O(1) and in-window promotions are O(window)). The bank's ready cycle and
// whether its scheduler window (the first window requests queued) holds a
// row hit live in its channel's readyAt array and hit mask, so the bank
// pick reads no bank.
type bank struct {
	openRow int64 // -1 when closed
	queue   []pendingReq
	head    int
}

func (b *bank) pending() int { return len(b.queue) - b.head }

func (b *bank) push(pr pendingReq) {
	if len(b.queue) == cap(b.queue) && b.head*2 >= len(b.queue) && b.head > 0 {
		// Full, but at least half of it is the consumed prefix: slide the
		// live requests down instead of growing the backing array.
		n := copy(b.queue, b.queue[b.head:])
		clear(b.queue[n:])
		b.queue = b.queue[:n]
		b.head = 0
	}
	b.queue = append(b.queue, pr)
}

// removeAt extracts the request at absolute index i, shifting the
// entries before it to preserve arrival order.
func (b *bank) removeAt(i int) pendingReq {
	pr := b.queue[i]
	copy(b.queue[b.head+1:i+1], b.queue[b.head:i])
	b.queue[b.head] = pendingReq{}
	b.head++
	if b.head == len(b.queue) {
		// Empty: rewind so pushes reuse the slots.
		b.queue = b.queue[:0]
		b.head = 0
	}
	return pr
}

// windowHit reports whether a request in the scheduler window targets the
// open row.
func (b *bank) windowHit(window int) bool {
	end := min(len(b.queue), b.head+window)
	for i := b.head; i < end; i++ {
		if b.queue[i].row == b.openRow {
			return true
		}
	}
	return false
}

type channel struct {
	id          int
	banks       []bank
	rr          int // round-robin pointer over banks
	nextRefresh sim.Cycle

	// The data bus is reserved in arrival order: a burst starts no
	// earlier than busFree, the end of the last burst claimed, and
	// busBusy totals the claimed cycles for BusUtilization.
	busFree, busBusy sim.Cycle

	// readyAt is, per bank, the cycle it can take its next command.
	// pending has bit i set while bank i has queued requests, and hit
	// while bank i's scheduler window holds a request to its open row;
	// queued counts the channel's requests.
	readyAt []sim.Cycle
	pending uint64
	hit     uint64
	queued  int

	// Scheduler arming state: one wake event is outstanding at a time;
	// re-arming earlier supersedes it via the generation counter.
	armGen  uint64
	armed   bool
	armedAt sim.Cycle
	nextCmd sim.Cycle // command-pacing: no two issues within TCmd
}

// setHit records whether bank bk's window holds a row hit.
func (c *channel) setHit(bk int, on bool) {
	c.hit = c.hit&^(1<<uint(bk)) | bit(on)<<uint(bk)
}

// Hook observes the memory system's scheduling decisions. Serviced reports
// the state the scheduler saw before mutating it (the open row and
// bank-ready cycle at pick time), so an observer can maintain shadow state
// and flag illegal transitions, or classify the access as a row hit
// (row == openBefore).
type Hook interface {
	// Submitted fires when a request enters a bank queue.
	Submitted(now sim.Cycle, req mem.Request, ch, bk int, row int64)
	// Serviced fires when the scheduler dispatches a request. openBefore
	// and readyBefore are the bank's open row and ready cycle at dispatch.
	Serviced(now sim.Cycle, req mem.Request, ch, bk int, row, openBefore int64, readyBefore sim.Cycle)
	// Refreshed fires once per refresh interval served on a channel; all
	// of the channel's rows close.
	Refreshed(now sim.Cycle, ch int)
}

// DRAM is the memory system. It is driven by the shared event engine.
type DRAM struct {
	cfg   Config
	eng   *sim.Engine
	chans []*channel
	hook  Hook
	Stats *stats.Counters

	// latSum totals the arrival-to-completion latency of the latN
	// requests serviced so far.
	latSum, latN uint64

	// Pre-resolved counter handles for the per-request hot path (lazy, so
	// the Stats creation order still follows first touch). stClassBytes is
	// indexed by mem.Class and avoids building "bytes_<class>" strings on
	// every submit.
	stRequests     stats.Handle
	stBytesRead    stats.Handle
	stBytesWritten stats.Handle
	stRowHits      stats.Handle
	stRowMisses    stats.Handle
	stRowConflicts stats.Handle
	stRefreshes    stats.Handle
	stClassBytes   []stats.Handle
}

// SetHook installs the memory system's one scheduling observer (nil =
// off, one branch per request).
func (d *DRAM) SetHook(h Hook) { d.hook = h }

// New builds the memory system on the given engine. It panics on an
// invalid configuration (static setup).
func New(eng *sim.Engine, cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &DRAM{
		cfg:   cfg,
		eng:   eng,
		Stats: stats.NewCounters(),
	}
	d.stRequests = d.Stats.Handle("requests")
	d.stBytesRead = d.Stats.Handle("bytes_read")
	d.stBytesWritten = d.Stats.Handle("bytes_written")
	d.stRowHits = d.Stats.Handle("row_hits")
	d.stRowMisses = d.Stats.Handle("row_misses")
	d.stRowConflicts = d.Stats.Handle("row_conflicts")
	d.stRefreshes = d.Stats.Handle("refreshes")
	for _, cl := range mem.Classes() {
		for int(cl) >= len(d.stClassBytes) {
			d.stClassBytes = append(d.stClassBytes, stats.Handle{})
		}
		d.stClassBytes[cl] = d.Stats.Handle("bytes_" + cl.String())
	}
	for i := 0; i < cfg.Channels; i++ {
		ch := &channel{id: i, nextRefresh: cfg.TREFI}
		ch.banks = make([]bank, cfg.BanksPerChannel)
		ch.readyAt = make([]sim.Cycle, cfg.BanksPerChannel)
		// One backing array gives every bank's queue its first slots, so
		// queues grow from there instead of from empty during the run.
		backing := make([]pendingReq, cfg.BanksPerChannel*initialQueue)
		for b := range ch.banks {
			ch.banks[b].openRow = -1
			ch.banks[b].queue = backing[b*initialQueue : b*initialQueue : (b+1)*initialQueue]
		}
		d.chans = append(d.chans, ch)
	}
	return d
}

// route decodes a physical address into channel, bank, and row.
func (d *DRAM) route(addr uint64) (ch, bk int, row int64) {
	stripe := addr / uint64(d.cfg.ChannelInterleaveBytes)
	ch = int(stripe % uint64(d.cfg.Channels))
	// The address space seen by one channel.
	chanAddr := stripe/uint64(d.cfg.Channels)*uint64(d.cfg.ChannelInterleaveBytes) +
		addr%uint64(d.cfg.ChannelInterleaveBytes)
	rowGlobal := chanAddr / uint64(d.cfg.RowBytes)
	bk = int(rowGlobal % uint64(d.cfg.BanksPerChannel))
	row = int64(rowGlobal / uint64(d.cfg.BanksPerChannel))
	return ch, bk, row
}

// Submit enqueues a request that nobody waits on. Reads and writes are
// scheduled identically (write latency matters because protection
// read-modify-writes serialize on it).
func (d *DRAM) Submit(now sim.Cycle, req mem.Request) {
	d.SubmitPost(now, req, nil, 0)
}

// SubmitPost enqueues a request and completes it by posting
// done.OnEvent(finish, arg, 0) at the cycle it finishes: reads deliver
// their data then, writes are accepted by the bank. A nil done completes
// it silently, as Submit does.
func (d *DRAM) SubmitPost(now sim.Cycle, req mem.Request, done sim.Handler, arg uint64) {
	if req.Class < 0 || req.Class > math.MaxUint8 || req.Bytes < 0 || req.Bytes > math.MaxInt32 {
		panic(fmt.Sprintf("dram: request out of range: %v", req))
	}
	ch, bk, row := d.route(req.Addr)
	c := d.chans[ch]
	c.push(bk, pendingReq{
		addr: req.Addr, arrival: now, row: row, done: done, arg: arg,
		bytes: int32(req.Bytes), class: uint8(req.Class), write: req.Write,
	}, d.cfg.SchedulerWindow)
	if d.hook != nil {
		d.hook.Submitted(now, req, ch, bk, row)
	}
	d.stRequests.Inc()
	if int(req.Class) < len(d.stClassBytes) {
		d.stClassBytes[req.Class].Add(uint64(req.Bytes))
	} else {
		d.Stats.Add("bytes_"+req.Class.String(), uint64(req.Bytes))
	}
	if req.Write {
		d.stBytesWritten.Add(uint64(req.Bytes))
	} else {
		d.stBytesRead.Add(uint64(req.Bytes))
	}
	d.arm(c, now)
}

// arm schedules the channel's next scheduling step at cycle at (or the
// command-pacing boundary if later). An earlier re-arm supersedes a later
// one.
func (d *DRAM) arm(c *channel, at sim.Cycle) {
	if at < c.nextCmd {
		at = c.nextCmd
	}
	if c.armed && c.armedAt <= at {
		return
	}
	c.armed = true
	c.armedAt = at
	c.armGen++
	d.eng.Post(at, (*armHandler)(d), uint64(uint32(c.id)), c.armGen)
}

// armHandler runs a channel's scheduling step as a pooled event: a0 is the
// channel index, a1 the arming generation (a stale generation means an
// earlier re-arm superseded this wake).
type armHandler DRAM

func (h *armHandler) OnEvent(now sim.Cycle, a0, a1 uint64) {
	d := (*DRAM)(h)
	c := d.chans[a0]
	if a1 != c.armGen {
		return // superseded by an earlier arm
	}
	c.armed = false
	d.service(c, now)
}

// push queues a request on bank bk.
func (c *channel) push(bk int, pr pendingReq, window int) {
	b := &c.banks[bk]
	if b.pending() < window && pr.row == b.openRow {
		c.hit |= 1 << uint(bk)
	}
	b.push(pr)
	c.pending |= 1 << uint(bk)
	c.queued++
}

// remove dequeues the request at absolute index i of bank bk. The caller
// opens the request's row and rechecks the bank's hit bit.
func (c *channel) remove(bk, i int) pendingReq {
	b := &c.banks[bk]
	pr := b.removeAt(i)
	if b.pending() == 0 {
		c.pending &^= 1 << uint(bk)
	}
	c.queued--
	return pr
}

// bit is 1 for true, 0 for false.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// service runs one scheduling step on a channel: pick a ready bank
// (round-robin), apply FR-FCFS within that bank (oldest row hit in the
// window, else head-of-queue), model timing, and re-arm. Busy banks are
// never dispatched early — that would serialize the data bus behind one
// bank's recovery.
func (d *DRAM) service(c *channel, now sim.Cycle) {
	d.maybeRefresh(c, now)
	bk, wake := d.pickBank(c, now)
	if bk < 0 {
		if c.queued > 0 {
			d.arm(c, wake)
		}
		return
	}
	window := d.cfg.SchedulerWindow
	b := &c.banks[bk]
	idx := b.head
	if c.hit&(1<<uint(bk)) != 0 {
		for b.queue[idx].row != b.openRow {
			idx++
		}
	}
	pr := c.remove(bk, idx)
	row := pr.row
	if d.hook != nil {
		d.hook.Serviced(now, pr.request(), c.id, bk, row, b.openRow, c.readyAt[bk])
	}

	// Split bank occupancy from access latency: a row hit issues its CAS
	// now and the bank can take the next CAS one burst later (tCCD), while
	// the data itself appears tCAS later. Activates and precharges occupy
	// the bank for their full duration. This is what lets row-hit streams
	// saturate the data bus instead of serializing CAS behind data.
	var colIssued sim.Cycle
	switch {
	case b.openRow == row:
		d.stRowHits.Inc()
		colIssued = now
	case b.openRow < 0:
		d.stRowMisses.Inc()
		colIssued = now + d.cfg.TRCD
	default:
		d.stRowConflicts.Inc()
		colIssued = now + d.cfg.TRP + d.cfg.TRCD
	}
	// The window lost this request and may have gained the next queued
	// one, and the open row may have changed: recheck it for a hit.
	b.openRow = row
	c.setHit(bk, b.windowHit(window))

	bursts := (int(pr.bytes) + 31) / 32
	if bursts == 0 {
		bursts = 1
	}
	busDur := d.cfg.TBurst * sim.Cycle(bursts)
	c.readyAt[bk] = colIssued + busDur // next CAS may follow at tCCD (≈ burst)
	finish := max(colIssued+d.cfg.TCAS, c.busFree) + busDur
	c.busFree = finish
	c.busBusy += busDur

	d.latSum += uint64(finish - pr.arrival)
	d.latN++
	if pr.done != nil {
		d.eng.Post(finish, pr.done, pr.arg, 0)
	}

	// The next command issues after the command gap, independent of this
	// request's data phase — banks overlap their activations, which is
	// what gives DRAM its bank-level parallelism.
	c.nextCmd = now + d.cfg.TCmd
	if c.queued > 0 {
		d.arm(c, c.nextCmd)
	}
}

// maybeRefresh stalls the whole channel for TRFC every TREFI cycles,
// closing all rows — the periodic tax every DRAM pays.
func (d *DRAM) maybeRefresh(c *channel, now sim.Cycle) {
	if d.cfg.TREFI == 0 {
		return
	}
	for now >= c.nextRefresh {
		end := c.nextRefresh + d.cfg.TRFC
		for i := range c.banks {
			c.readyAt[i] = max(c.readyAt[i], end)
			c.banks[i].openRow = -1
		}
		c.hit = 0
		c.nextRefresh += d.cfg.TREFI
		d.stRefreshes.Inc()
		if d.hook != nil {
			d.hook.Refreshed(now, c.id)
		}
	}
}

// pickBank returns a ready bank with pending work, preferring (1) a ready
// bank with a row hit in its window and (2) round-robin order from c.rr
// for fairness. It returns -1 when no pending bank is ready, together with
// the earliest cycle at which one will be (meaningless when nothing is
// queued).
func (d *DRAM) pickBank(c *channel, now sim.Cycle) (int, sim.Cycle) {
	ready, wake := c.readyMask(now)
	if ready == 0 {
		return -1, wake
	}
	cand := ready & c.hit
	if cand == 0 {
		cand = ready
	}
	// The first candidate at or after rr, else the lowest.
	bk := bits.TrailingZeros64(cand)
	if from := cand >> uint(c.rr) << uint(c.rr); from != 0 {
		bk = bits.TrailingZeros64(from)
	}
	c.rr = bk + 1
	if c.rr == len(c.banks) {
		c.rr = 0
	}
	return bk, 0
}

// readyMask masks the pending banks that are ready at now, without a
// data-dependent branch per bank, and returns the earliest ready cycle
// among them.
func (c *channel) readyMask(now sim.Cycle) (ready uint64, wake sim.Cycle) {
	wake = ^sim.Cycle(0)
	for m := c.pending; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		at := c.readyAt[i]
		ready |= bit(at <= now) << uint(i)
		wake = min(wake, at)
	}
	return ready, wake
}

// Drain returns true when all channels have empty queues.
func (d *DRAM) Drain() bool {
	for _, c := range d.chans {
		if c.queued > 0 {
			return false
		}
	}
	return true
}

// BusUtilization reports per-channel data bus utilization over elapsed
// cycles, sorted by channel id.
func (d *DRAM) BusUtilization(elapsed sim.Cycle) []float64 {
	out := make([]float64, len(d.chans))
	if elapsed == 0 {
		return out
	}
	for i, c := range d.chans {
		out[i] = float64(c.busBusy) / float64(elapsed)
	}
	sort.Float64s(out)
	return out
}

// Latency reports the summed arrival-to-completion latency of the
// requests serviced so far, and their number.
func (d *DRAM) Latency() (sum, n uint64) { return d.latSum, d.latN }

// TotalBytes reports all bytes moved, by summing read and write counters.
func (d *DRAM) TotalBytes() uint64 {
	return d.Stats.Get("bytes_read") + d.Stats.Get("bytes_written")
}
