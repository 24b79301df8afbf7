// Package dram models a GDDR6-like GPU memory system: multiple channels,
// banks with open-row policy, FR-FCFS-style scheduling, and a
// bandwidth-limited data bus per channel. Timing is first-order — the
// parameters that matter for the protection study are row hit vs miss cost
// and bus occupancy per burst, not the full DDR state machine.
package dram

import (
	"fmt"
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

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.BanksPerChannel <= 0 || c.RowBytes <= 0:
		return fmt.Errorf("dram: sizes must be positive: %+v", c)
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

type pendingReq struct {
	req     mem.Request
	arrival sim.Cycle
	row     int64 // decoded once at submit; FR-FCFS scans compare it often
}

// bank holds its own FIFO request queue (with a head index so dequeues are
// O(1) and in-window promotions are O(window)).
type bank struct {
	openRow int64 // -1 when closed
	readyAt sim.Cycle
	queue   []pendingReq
	head    int
}

func (b *bank) pending() int { return len(b.queue) - b.head }

func (b *bank) push(pr pendingReq) { b.queue = append(b.queue, pr) }

// removeAt extracts the request at absolute index i (>= head), shifting
// the intervening entries to preserve arrival order.
func (b *bank) removeAt(i int) pendingReq {
	pr := b.queue[i]
	copy(b.queue[b.head+1:i+1], b.queue[b.head:i])
	b.queue[b.head] = pendingReq{}
	b.head++
	if b.head == len(b.queue) {
		// Empty: rewind so pushes reuse the slots instead of growing the
		// backing array forever.
		b.queue = b.queue[:0]
		b.head = 0
	} else if b.head > 1024 && b.head*2 > len(b.queue) {
		n := copy(b.queue, b.queue[b.head:])
		b.queue = b.queue[:n]
		b.head = 0
	}
	return pr
}

type channel struct {
	id          int
	banks       []bank
	bus         *sim.Resource
	rr          int // round-robin pointer over banks
	nextRefresh sim.Cycle

	// Scheduler arming state: one wake event is outstanding at a time;
	// re-arming earlier supersedes it via the generation counter.
	armGen  uint64
	armed   bool
	armedAt sim.Cycle
	nextCmd sim.Cycle // command-pacing: no two issues within TCmd
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
	cfg     Config
	eng     *sim.Engine
	chans   []*channel
	hook    Hook
	Stats   *stats.Counters
	LatHist *stats.Histogram

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
		cfg:     cfg,
		eng:     eng,
		Stats:   stats.NewCounters(),
		LatHist: stats.NewHistogram(64, 128, 256, 512, 1024, 2048),
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
		ch := &channel{id: i, bus: sim.NewResource(fmt.Sprintf("dram-ch%d", i)), nextRefresh: cfg.TREFI}
		ch.banks = make([]bank, cfg.BanksPerChannel)
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		d.chans = append(d.chans, ch)
	}
	return d
}

// Config reports the memory configuration.
func (d *DRAM) Config() Config { return d.cfg }

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

// Submit enqueues a request. The request's Done callback fires at
// completion time. Reads and writes are scheduled identically (write
// latency matters because protection read-modify-writes serialize on it).
func (d *DRAM) Submit(now sim.Cycle, req mem.Request) {
	ch, bk, row := d.route(req.Addr)
	c := d.chans[ch]
	c.banks[bk].push(pendingReq{req: req, arrival: now, row: row})
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

// QueueLen reports the total queued requests (for backpressure tests).
func (d *DRAM) QueueLen() int {
	total := 0
	for _, c := range d.chans {
		for i := range c.banks {
			total += c.banks[i].pending()
		}
	}
	return total
}

// service runs one scheduling step on a channel: pick a ready bank
// (round-robin), apply FR-FCFS within that bank (oldest row hit in the
// window, else head-of-queue), model timing, and re-arm. Busy banks are
// never dispatched early — that would serialize the data bus behind one
// bank's recovery.
func (d *DRAM) service(c *channel, now sim.Cycle) {
	d.maybeRefresh(c, now)
	bk := d.pickBank(c, now)
	if bk < 0 {
		if wake, ok := d.earliestWork(c, now); ok {
			d.arm(c, wake)
		}
		return
	}
	b := &c.banks[bk]
	idx := b.head
	for i := b.head; i < len(b.queue) && i < b.head+d.cfg.SchedulerWindow; i++ {
		if b.queue[i].row == b.openRow {
			idx = i
			break
		}
	}
	pr := b.removeAt(idx)
	row := pr.row
	if d.hook != nil {
		d.hook.Serviced(now, pr.req, c.id, bk, row, b.openRow, b.readyAt)
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
	b.openRow = row

	bursts := (pr.req.Bytes + 31) / 32
	if bursts == 0 {
		bursts = 1
	}
	busDur := d.cfg.TBurst * sim.Cycle(bursts)
	b.readyAt = colIssued + busDur // next CAS may follow at tCCD (≈ burst)
	busStart := c.bus.Claim(colIssued+d.cfg.TCAS, busDur)
	finish := busStart + busDur

	d.LatHist.Observe(uint64(finish - pr.arrival))
	if done := pr.req.Done; done != nil {
		d.eng.At(finish, done)
	}

	// The next command issues after the command gap, independent of this
	// request's data phase — banks overlap their activations, which is
	// what gives DRAM its bank-level parallelism.
	c.nextCmd = now + d.cfg.TCmd
	if _, ok := d.earliestWork(c, now); ok {
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
			b := &c.banks[i]
			if b.readyAt < end {
				b.readyAt = end
			}
			b.openRow = -1
		}
		c.nextRefresh += d.cfg.TREFI
		d.stRefreshes.Inc()
		if d.hook != nil {
			d.hook.Refreshed(now, c.id)
		}
	}
}

// pickBank returns a ready bank with pending work, preferring (1) a ready
// bank whose open row matches its queue window (a row hit) and (2)
// round-robin order for fairness; -1 when every pending bank is busy.
func (d *DRAM) pickBank(c *channel, now sim.Cycle) int {
	n := len(c.banks)
	fallback := -1
	for off := 0; off < n; off++ {
		bk := (c.rr + off) % n
		b := &c.banks[bk]
		if b.pending() == 0 || b.readyAt > now {
			continue
		}
		// Does this bank's window contain a row hit?
		hit := false
		for i := b.head; i < len(b.queue) && i < b.head+d.cfg.SchedulerWindow; i++ {
			if b.queue[i].row == b.openRow {
				hit = true
				break
			}
		}
		if hit {
			c.rr = (bk + 1) % n
			return bk
		}
		if fallback < 0 {
			fallback = bk
		}
	}
	if fallback >= 0 {
		c.rr = (fallback + 1) % n
	}
	return fallback
}

// earliestWork reports the earliest cycle at which any bank with pending
// work could be serviced; ok is false when no work is queued.
func (d *DRAM) earliestWork(c *channel, now sim.Cycle) (sim.Cycle, bool) {
	earliest := sim.Cycle(0)
	found := false
	for i := range c.banks {
		b := &c.banks[i]
		if b.pending() == 0 {
			continue
		}
		at := b.readyAt
		if at < now {
			at = now
		}
		if !found || at < earliest {
			earliest = at
			found = true
		}
	}
	return earliest, found
}

// Drain returns true when all channels have empty queues.
func (d *DRAM) Drain() bool {
	for _, c := range d.chans {
		for i := range c.banks {
			if c.banks[i].pending() > 0 {
				return false
			}
		}
	}
	return true
}

// BusUtilization reports per-channel data bus utilization over elapsed
// cycles, sorted by channel id.
func (d *DRAM) BusUtilization(elapsed sim.Cycle) []float64 {
	out := make([]float64, len(d.chans))
	for i, c := range d.chans {
		out[i] = c.bus.Utilization(elapsed)
	}
	sort.Float64s(out)
	return out
}

// TotalBytes reports all bytes moved, by summing read and write counters.
func (d *DRAM) TotalBytes() uint64 {
	return d.Stats.Get("bytes_read") + d.Stats.Get("bytes_written")
}
