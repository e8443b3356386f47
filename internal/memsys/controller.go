package memsys

import (
	"fmt"
	"math"
	"math/bits"

	"pacram/internal/ddr"
)

// Config assembles a memory controller.
type Config struct {
	Geometry ddr.Geometry
	Timing   ddr.Timing
	// CPUFreqGHz converts DRAM nanosecond timings to CPU cycles.
	CPUFreqGHz float64
	// Queue depths (64 each in the paper's Table 2).
	ReadQueue, WriteQueue int
	// Write drain watermarks as fractions of the write queue.
	DrainHi, DrainLo float64
	// MOPWidth is the MOP address-mapping group size.
	MOPWidth int
	// ExtraLatency is the fixed on-chip latency (cycles) added to every
	// read completion (caches, interconnect).
	ExtraLatency uint64
	// RefreshEnabled turns periodic refresh on (off for bare
	// characterization-style runs).
	RefreshEnabled bool
	// BlastRadius is how far (in rows) preventive refreshes reach
	// around an aggressor (2 in the paper, to cover Half-Double).
	BlastRadius int
}

// DefaultConfig returns the paper's simulated configuration.
func DefaultConfig() Config {
	return Config{
		Geometry:       ddr.PaperSystem(),
		Timing:         ddr.DDR5(),
		CPUFreqGHz:     3.2,
		ReadQueue:      64,
		WriteQueue:     64,
		DrainHi:        0.8,
		DrainLo:        0.25,
		MOPWidth:       4,
		ExtraLatency:   48,
		RefreshEnabled: true,
		BlastRadius:    2,
	}
}

// Validate checks the controller parameters that Geometry.Validate
// and Timing.Validate do not: a positive CPU clock, room in both
// queues, ordered drain watermarks within the write queue, and a
// non-negative blast radius. A zero-depth queue would stall every
// request until the cycle budget ran out, so this rejects it up front.
func (cfg Config) Validate() error {
	switch {
	case !(cfg.CPUFreqGHz > 0):
		return fmt.Errorf("memsys: CPU frequency must be positive, got %g GHz", cfg.CPUFreqGHz)
	case cfg.ReadQueue < 1 || cfg.WriteQueue < 1:
		return fmt.Errorf("memsys: queue depths must be >= 1, got read %d, write %d", cfg.ReadQueue, cfg.WriteQueue)
	case !(0 <= cfg.DrainLo && cfg.DrainLo <= cfg.DrainHi && cfg.DrainHi <= 1):
		return fmt.Errorf("memsys: drain watermarks need 0 <= DrainLo <= DrainHi <= 1, got %g and %g", cfg.DrainLo, cfg.DrainHi)
	case cfg.BlastRadius < 0:
		return fmt.Errorf("memsys: blast radius must be >= 0, got %d", cfg.BlastRadius)
	}
	return nil
}

// vrrReq is a queued preventive refresh.
type vrrReq struct {
	bank, row int
}

// rfmReq is a queued refresh-management command.
type rfmReq struct {
	rank int
	bank int // bank whose aggressor neighbourhood is refreshed
}

// Controller is the cycle-level memory controller.
type Controller struct {
	cfg    Config
	mapper *ddr.Mapper
	mitig  Mitigation
	policy RefreshPolicy

	banks []bank
	ranks []rank
	// bgColReady gates same-bank-group column commands at tCCD_L;
	// cross-group columns only contend for the data bus (tCCD_S).
	bgColReady []uint64

	readQ, writeQ []*Request
	vrrQ          []vrrReq
	rfmQ          []rfmReq

	// freeReqs recycles Request objects. Requests leave the queues only
	// through issueColumn, which parks them here; the issue paths reuse
	// them so the steady-state request path allocates nothing
	// (TestControllerSteadyStateAllocs and the benchjson alloc gate).
	freeReqs []*Request
	// demandDone counts queued reads carrying a Done callback. It lets
	// VisibleHorizon tell "a core is waiting on this channel" from pure
	// mitigation-metadata traffic without scanning the read queue.
	demandDone int

	completions completionHeap
	cycle       uint64
	busUntil    uint64 // data bus (single channel)

	draining bool
	// drainHi/drainLo are the write-queue occupancies at which a drain
	// starts and stops (WriteQueue × DrainHi/DrainLo, truncated).
	drainHi, drainLo int

	// events counts state changes (commands issued, completions fired,
	// refresh transitions). Two equal readings around a Tick prove the
	// tick was pure clock advance; see Events.
	events uint64

	// rdHits/wrHits are the row-hit index (see hitIndex); ready is
	// readyHits' scratch bitset of the hit banks whose column command
	// can issue now, and bankGroup maps a flat bank to its dense
	// bank-group index.
	rdHits, wrHits hitIndex
	ready          []uint64
	bankGroup      []int

	// victimScratch is victimRows' reusable backing array.
	victimScratch []int

	// cached cycle conversions
	cRCD, cRP, cRAS, cCL, cCWL, cBL, cCCD, cRRD, cFAW, cWR, cRTP, cWTR uint64
	cRFC, cREFI, cRFM                                                  uint64
	refWindowCycles                                                    uint64
	nextRefWindow                                                      uint64

	stats Stats

	// audit is an optional activation listener (security tests).
	audit func(bank, row int, preventive bool)
}

// NewController builds a controller. The mitigation and policy may be
// nil (no mitigation, nominal latency).
func NewController(cfg Config, mitig Mitigation, policy RefreshPolicy) (*Controller, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Geometry.Channels != 1 {
		return nil, fmt.Errorf("memsys: Controller models one channel, got Geometry.Channels = %d (use NewSystem for multi-channel)", cfg.Geometry.Channels)
	}
	mapper, err := ddr.NewMOPMapper(cfg.Geometry, cfg.MOPWidth)
	if err != nil {
		return nil, err
	}
	if mitig == nil {
		mitig = NoMitigation{}
	}
	if policy == nil {
		policy = NominalPolicy{TRASNs: cfg.Timing.TRAS}
	}
	c := &Controller{
		cfg:    cfg,
		mapper: mapper,
		mitig:  mitig,
		policy: policy,
		banks:  make([]bank, cfg.Geometry.TotalBanks()),
		ranks:  make([]rank, cfg.Geometry.Channels*cfg.Geometry.Ranks),
	}
	c.bgColReady = make([]uint64, cfg.Geometry.Channels*cfg.Geometry.Ranks*cfg.Geometry.BankGroups)
	nb := len(c.banks)
	c.rdHits, c.wrHits = newHitIndex(nb), newHitIndex(nb)
	c.ready = make([]uint64, len(c.rdHits.set))
	c.bankGroup = make([]int, nb)
	for i := range c.banks {
		c.banks[i].reset()
		// FlatBank is bank-group-major with BanksPerGroup banks each.
		c.bankGroup[i] = i / cfg.Geometry.BanksPerGroup
	}
	t := cfg.Timing
	cyc := func(ns float64) uint64 { return uint64(math.Ceil(ns * cfg.CPUFreqGHz)) }
	c.cRCD, c.cRP, c.cRAS = cyc(t.TRCD), cyc(t.TRP), cyc(t.TRAS)
	c.cCL, c.cCWL, c.cBL = cyc(t.TCL), cyc(t.TCWL), cyc(t.TBL)
	c.cCCD, c.cRRD, c.cFAW = cyc(t.TCCD), cyc(t.TRRD), cyc(t.TFAW)
	c.cWR, c.cRTP, c.cWTR = cyc(t.TWR), cyc(t.TRTP), cyc(t.TWTR)
	c.cRFC, c.cREFI, c.cRFM = cyc(t.TRFC), cyc(t.TREFI), cyc(t.TRFM)
	if to, ok := mitig.(TimingOverhead); ok {
		// Mechanisms like PRAC tax every precharge (counter update).
		c.cRP += cyc(to.ExtraPrechargeNs())
	}
	c.drainHi = int(float64(cfg.WriteQueue) * cfg.DrainHi)
	c.drainLo = int(float64(cfg.WriteQueue) * cfg.DrainLo)
	c.refWindowCycles = cyc(t.TREFW)
	c.nextRefWindow = c.refWindowCycles
	for i := range c.ranks {
		c.ranks[i].nextRefAt = c.cREFI
	}
	return c, nil
}

// Stats returns a snapshot of the controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// Geometry returns the configured geometry.
func (c *Controller) Geometry() ddr.Geometry { return c.cfg.Geometry }

// Mapper returns the address mapper.
func (c *Controller) Mapper() *ddr.Mapper { return c.mapper }

// Cycle returns the current cycle.
func (c *Controller) Cycle() uint64 { return c.cycle }

// SetAudit installs an activation listener used by security tests:
// it observes every row activation (demand and preventive).
func (c *Controller) SetAudit(fn func(bank, row int, preventive bool)) { c.audit = fn }

// nowNs returns the wall-clock time in ns.
func (c *Controller) nowNs() float64 { return float64(c.cycle) / c.cfg.CPUFreqGHz }

func (c *Controller) cycles(ns float64) uint64 {
	return uint64(math.Ceil(ns * c.cfg.CPUFreqGHz))
}

// Issue enqueues a request (MemoryPort for cores). Returns false when
// the respective queue is full. The address is decoded with the
// controller's own single-channel mapper; multi-channel systems decode
// once at the System layer and call IssueDecoded directly.
func (c *Controller) Issue(addr uint64, write bool, done func()) bool {
	line := addr &^ uint64(c.cfg.Geometry.LineBytes-1)
	return c.IssueDecoded(c.mapper.Decode(addr), line, write, done)
}

// IssueDecoded enqueues a request whose address is already decoded to
// channel-local coordinates (Addr.Channel must be 0 — this controller
// IS the channel). line is the line-aligned physical address used for
// write-to-read forwarding; it may carry channel bits, which is safe
// because requests on different channels can never share a line.
func (c *Controller) IssueDecoded(a ddr.Address, line uint64, write bool, done func()) bool {
	if write {
		if len(c.writeQ) >= c.cfg.WriteQueue {
			return false
		}
		req := c.getRequest()
		*req = Request{Addr: a, Line: line, Write: true, Arrival: c.cycle}
		c.enqueue(req)
		return true
	}
	if len(c.readQ) >= c.cfg.ReadQueue {
		return false
	}
	// Forward from the write queue when the line is pending there.
	for _, w := range c.writeQ {
		if w.Line == line {
			if done != nil {
				c.completions.schedule(c.cycle+1, done)
			}
			c.stats.Reads++ // serviced, albeit by forwarding
			return true
		}
	}
	req := c.getRequest()
	*req = Request{Addr: a, Line: line, Write: false, Done: done, Arrival: c.cycle}
	c.enqueue(req)
	if done != nil {
		c.demandDone++
	}
	return true
}

// getRequest returns a recycled Request, or a fresh one while the pool
// is warming up. The caller overwrites every field.
func (c *Controller) getRequest() *Request {
	if n := len(c.freeReqs); n > 0 {
		req := c.freeReqs[n-1]
		c.freeReqs[n-1] = nil
		c.freeReqs = c.freeReqs[:n-1]
		return req
	}
	return new(Request)
}

// enqueue caches the request's flat bank, appends it to its queue and
// counts it in the row-hit index if it targets its bank's open row.
func (c *Controller) enqueue(req *Request) {
	b := c.cfg.Geometry.FlatBank(req.Addr)
	req.bank = b
	if req.Write {
		c.writeQ = append(c.writeQ, req)
	} else {
		c.readQ = append(c.readQ, req)
	}
	if c.banks[b].openRow == req.Addr.Row {
		c.hits(req.Write).add(b)
	}
}

// metaLine is the forwarding line of metadata requests. Demand lines
// are line-aligned, so none is all ones and a pending metadata write
// never serves a demand read.
const metaLine = ^uint64(0)

// QueueMeta injects mitigation metadata traffic (Hydra's RCT).
func (c *Controller) queueMeta(bankFlat int, reads, writes int) {
	geo := c.cfg.Geometry
	a := geo.BankOfFlat(bankFlat)
	a.Row = geo.Rows - 1 // metadata region: last row of the bank
	for i := 0; i < reads && len(c.readQ) < c.cfg.ReadQueue; i++ {
		a.Column = (int(c.stats.MetaReads) + i) % geo.Columns
		req := c.getRequest()
		*req = Request{Addr: a, Line: metaLine, Write: false, Arrival: c.cycle, Meta: true}
		c.enqueue(req)
		c.stats.MetaReads++
	}
	for i := 0; i < writes && len(c.writeQ) < c.cfg.WriteQueue; i++ {
		a.Column = (int(c.stats.MetaWrites) + i) % geo.Columns
		req := c.getRequest()
		*req = Request{Addr: a, Line: metaLine, Write: true, Arrival: c.cycle, Meta: true}
		c.enqueue(req)
		c.stats.MetaWrites++
	}
}

// PendingReads reports outstanding demand reads (for drain-at-end).
func (c *Controller) PendingReads() int { return len(c.readQ) }

// Tick advances the controller one CPU cycle, issuing at most one
// command on the (single) command bus.
func (c *Controller) Tick() {
	c.cycle++
	c.stats.Cycles = c.cycle
	c.events += uint64(c.completions.runDue(c.cycle))

	if c.cycle >= c.nextRefWindow {
		c.mitig.OnRefreshWindow()
		c.nextRefWindow += c.refWindowCycles
		c.events++
	}
	if c.cfg.RefreshEnabled {
		for r := range c.ranks {
			if c.cycle >= c.ranks[r].nextRefAt && !c.ranks[r].refPending {
				c.ranks[r].refPending = true
				c.events++
			}
		}
	}

	c.schedule(true)
}

// schedule is the controller's one statement of its scheduling rules.
// It walks the command candidates in Tick's priority order: a pending
// rank's REF (or the PRE it waits on), queued RFMs, queued preventive
// refreshes (VRR), ready read columns, ready write columns while the
// write queue is active, then the FCFS head's ACT or PRE. For each it
// computes the first cycle the candidate can issue.
//
// In issue mode (Tick) the first candidate ready now issues and the
// walk returns Cycle(). A dry run (NextEvent) issues nothing and
// mutates nothing but the c.ready scratch bitset: it returns Cycle()
// once a candidate is ready by the next tick, below which NextEvent
// clamps anyway. Otherwise the walk returns the minimum ready cycle
// (^0 when nothing is queued). Every gate is a "cycle >= deadline"
// test on state that only a command, a refresh transition or an Issue
// moves, so until one happens no tick before the dry run's minimum
// can issue.
func (c *Controller) schedule(issue bool) uint64 {
	// due is the latest ready cycle that ends the walk.
	due := c.cycle
	if !issue {
		due++
	}
	h := ^uint64(0)

	// Periodic refresh: while a REF is pending, rowReadyAt blocks new
	// ACTs, so the rank drains; its open banks are precharged here.
	nb := c.cfg.Geometry.Banks()
	for r := range c.ranks {
		rk := &c.ranks[r]
		if !rk.refPending {
			continue
		}
		if c.cycle < rk.busyTill {
			h = min(h, rk.busyTill)
			continue
		}
		idle := true
		for b := r * nb; b < (r+1)*nb; b++ {
			bk := &c.banks[b]
			at := bk.busyTill
			if bk.openRow != -1 {
				at = max(at, bk.preReady)
				if at <= due {
					if issue {
						c.issuePRE(b)
					}
					return c.cycle
				}
			}
			if at > c.cycle {
				idle = false
				h = min(h, at)
			}
		}
		if idle {
			if issue {
				c.issueREF(r)
			}
			return c.cycle
		}
	}

	for i, req := range c.rfmQ {
		at := c.restoreReadyAt(req.bank, req.rank, false)
		if at > due {
			h = min(h, at)
			continue
		}
		if issue {
			if c.banks[req.bank].openRow != -1 {
				c.issuePRE(req.bank)
			} else {
				c.issueRFM(i)
			}
		}
		return c.cycle
	}

	for i, req := range c.vrrQ {
		at := c.restoreReadyAt(req.bank, c.bankRank(req.bank), true)
		if at > due {
			h = min(h, at)
			continue
		}
		if issue {
			if c.banks[req.bank].openRow != -1 {
				c.issuePRE(req.bank)
			} else {
				c.issueVRR(i)
			}
		}
		return c.cycle
	}
	if h <= due {
		return c.cycle
	}

	// Demand. Write drain hysteresis: the flag follows queue occupancy,
	// which is fixed until the next tick, so a dry run projects it.
	draining := c.draining
	if !draining && len(c.writeQ) >= c.drainHi {
		draining = true
	}
	if draining && len(c.writeQ) <= c.drainLo {
		draining = false
	}
	if issue {
		c.draining = draining
	}
	useWrite := draining || len(c.readQ) == 0

	// First ready: the oldest row hit whose column command can issue.
	// Ready read columns always take priority — even mid-drain —
	// otherwise a drain whose writes conflict with an open read row
	// can livelock the read (close the row at tRAS, reopen, repeat).
	for _, write := range [2]bool{false, true} {
		if write && !useWrite {
			break
		}
		at, i := c.readyHits(write, issue)
		if at <= due {
			if issue {
				c.issueColumn(c.queue(write), i)
			}
			return c.cycle
		}
		h = min(h, at)
	}

	// Then FCFS: the oldest request of the active queue makes row
	// progress.
	q := *c.queue(useWrite)
	if len(q) == 0 {
		return h
	}
	req := q[0]
	at := c.rowReadyAt(req)
	if at > due {
		return min(h, at)
	}
	if issue {
		if c.banks[req.bank].openRow == -1 {
			c.issueACT(req.bank, req.Addr.Row, req.Meta)
		} else {
			c.issuePRE(req.bank)
		}
	}
	return c.cycle
}

// restoreReadyAt returns the first cycle a queued RFM or VRR on bank b
// of rank r can make progress: once the rank is free, a PRE if the
// bank is open, else the restore itself when the bank is free and, for
// a VRR (act: it activates the row), past its tRP.
func (c *Controller) restoreReadyAt(b, r int, act bool) uint64 {
	if rk := &c.ranks[r]; c.cycle < rk.busyTill {
		return rk.busyTill
	}
	bk := &c.banks[b]
	switch {
	case bk.openRow != -1:
		return max(bk.busyTill, bk.preReady)
	case act:
		return max(bk.busyTill, bk.actReady)
	}
	return bk.busyTill
}

// rowReadyAt returns the first cycle req's bank can make row progress
// toward it: an ACT when the bank is closed (bank timing, the rank's
// tRRD/tFAW, and no refresh in progress or pending), a PRE when
// another row is open. A row hit (^0) is the column stage's business,
// and so is a pending REF's own issue time.
func (c *Controller) rowReadyAt(req *Request) uint64 {
	bk := &c.banks[req.bank]
	switch bk.openRow {
	case req.Addr.Row:
		return ^uint64(0)
	case -1:
		rk := &c.ranks[c.bankRank(req.bank)]
		if rk.refPending {
			return ^uint64(0)
		}
		at := max(bk.busyTill, bk.actReady, rk.busyTill)
		if rk.lastAct != 0 {
			at = max(at, rk.lastAct+c.cRRD)
		}
		if oldest := rk.lastActs[rk.actIdx]; oldest != 0 {
			at = max(at, oldest+c.cFAW)
		}
		return at
	}
	return max(bk.busyTill, bk.preReady)
}

// readyHits is schedule's column stage for the read (or write) queue.
// Every column gate but the row match is per bank, so it walks the
// row-hit index's banks instead of the queue: it returns the earliest
// cycle any of them admits a column command, data bus included (^0
// with no hits). In issue mode, once that cycle has come, it also
// returns the oldest queued request on a ready bank that hits the open
// row (else -1); a busy bus settles that in O(1), and only then is the
// queue scanned. A dry run stops once the minimum reaches the next
// tick.
func (c *Controller) readyHits(write, issue bool) (uint64, int) {
	busAt := satSub(c.busUntil, c.cCL)
	if write {
		busAt = satSub(c.busUntil, c.cCWL)
	}
	if issue && busAt > c.cycle {
		return busAt, -1
	}
	h := ^uint64(0)
	for w, word := range c.hits(write).set {
		var r uint64
		for word != 0 {
			t := bits.TrailingZeros64(word)
			word &= word - 1
			at := max(c.columnReadyAt(w<<6|t, write), busAt)
			if at <= c.cycle {
				r |= 1 << t
			}
			if at < h {
				h = at
				if !issue && h <= c.cycle+1 {
					return h, -1
				}
			}
		}
		c.ready[w] = r
	}
	if !issue || h > c.cycle {
		return h, -1
	}
	for i, req := range *c.queue(write) {
		b := req.bank
		if c.ready[b>>6]&(1<<(b&63)) != 0 && c.banks[b].openRow == req.Addr.Row {
			return h, i
		}
	}
	return h, -1 // unreachable: every indexed bank has a queued hit
}

// columnReadyAt returns the first cycle bank b's gates admit a read
// (or write) column command, the shared data bus aside: the bank is
// free, its tRCD/tCCD chain has elapsed, and so has its bank group's
// tCCD_L.
func (c *Controller) columnReadyAt(b int, write bool) uint64 {
	bk := &c.banks[b]
	colReady := bk.rdReady
	if write {
		colReady = bk.wrReady
	}
	return max(bk.busyTill, colReady, c.bgColReady[c.bankGroup[b]])
}

// satSub is a - b saturating at zero.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// queue returns the read or write queue.
func (c *Controller) queue(write bool) *[]*Request {
	if write {
		return &c.writeQ
	}
	return &c.readQ
}

// bankRank returns the rank index of flat bank b.
func (c *Controller) bankRank(b int) int {
	return b / c.cfg.Geometry.Banks()
}

// issueREF refreshes rank r, whose banks are all closed and idle. The
// refresh policy scales tRFC.
func (c *Controller) issueREF(r int) {
	rk := &c.ranks[r]
	scale := c.policy.PeriodicScale(c.nowNs())
	dur := uint64(float64(c.cRFC) * scale)
	if dur == 0 {
		dur = 1
	}
	rk.busyTill = c.cycle + dur
	rk.refPending = false
	rk.nextRefAt += c.cREFI
	nb := c.cfg.Geometry.Banks()
	for b := r * nb; b < (r+1)*nb; b++ {
		c.banks[b].busyTill = rk.busyTill
		c.banks[b].actReady = rk.busyTill
	}
	c.stats.Refs++
	c.stats.RefBusy += dur * uint64(nb)
	c.stats.RefRestoreNs += c.cfg.Timing.TRFC * scale
	c.events++
}

// issueRFM services c.rfmQ[i] on its closed, free bank: the DRAM
// internally refreshes the neighbourhood (±BlastRadius) of the bank's
// last aggressor, each victim at the hold time the refresh policy
// dictates (§8.5).
func (c *Controller) issueRFM(i int) {
	req := c.rfmQ[i]
	bk := &c.banks[req.bank]
	var serviceNs float64
	rows := c.victimRows(bk.lastAggressor)
	for _, row := range rows {
		hold := c.policy.VRRHold(req.bank, row, c.nowNs())
		serviceNs += hold + c.cfg.Timing.TRP
		c.recordVRRLatency(hold)
		if c.audit != nil {
			c.audit(req.bank, row, true)
		}
	}
	if len(rows) == 0 {
		serviceNs = c.cfg.Timing.TRFM
	}
	dur := c.cycles(serviceNs)
	bk.busyTill = c.cycle + dur
	bk.actReady = bk.busyTill
	c.stats.RFMs++
	c.stats.PrevRefBusy += dur
	c.stats.VRRs += uint64(len(rows))
	c.rfmQ = append(c.rfmQ[:i], c.rfmQ[i+1:]...)
	c.events++
}

// issueVRR services the preventive refresh c.vrrQ[i] on its closed,
// free bank.
func (c *Controller) issueVRR(i int) {
	req := c.vrrQ[i]
	bk := &c.banks[req.bank]
	hold := c.policy.VRRHold(req.bank, req.row, c.nowNs())
	dur := c.cycles(hold + c.cfg.Timing.TRP)
	bk.busyTill = c.cycle + dur
	bk.actReady = bk.busyTill
	c.recordVRRLatency(hold)
	c.stats.VRRs++
	c.stats.PrevRefBusy += dur
	if c.audit != nil {
		c.audit(req.bank, req.row, true)
	}
	c.vrrQ = append(c.vrrQ[:i], c.vrrQ[i+1:]...)
	c.events++
}

func (c *Controller) recordVRRLatency(holdNs float64) {
	c.stats.VRRRestoreNs += holdNs
	if holdNs >= c.cfg.Timing.TRAS*0.999 {
		c.stats.VRRFull++
	} else {
		c.stats.VRRPartial++
	}
}

// victimRows returns the rows within the blast radius of aggr. The
// returned slice aliases a per-controller scratch buffer, valid until
// the next call.
func (c *Controller) victimRows(aggr int) []int {
	if aggr < 0 {
		return nil
	}
	rows := c.victimScratch[:0]
	for d := 1; d <= c.cfg.BlastRadius; d++ {
		if aggr-d >= 0 {
			rows = append(rows, aggr-d)
		}
		if aggr+d < c.cfg.Geometry.Rows {
			rows = append(rows, aggr+d)
		}
	}
	c.victimScratch = rows
	return rows
}

// issueACT opens a row and notifies the mitigation mechanism. ACTs on
// behalf of mitigation metadata (meta=true) still disturb neighbours
// physically (the audit sees them) but are not fed back into the
// mechanism's own tracker — real trackers place their tables in
// reserved rows they do not monitor, and the feedback loop would
// otherwise be unbounded.
func (c *Controller) issueACT(b, row int, meta bool) {
	c.events++
	bk := &c.banks[b]
	bk.openRow = row
	bk.lastAggressor = row
	bk.rdReady = c.cycle + c.cRCD
	bk.wrReady = c.cycle + c.cRCD
	bk.preReady = c.cycle + c.cRAS
	c.recountHits(b, row)
	c.ranks[c.bankRank(b)].recordACT(c.cycle)
	c.stats.Acts++
	c.stats.DemandBusy += uint64(c.cRAS)
	if c.audit != nil {
		c.audit(b, row, false)
	}
	if meta {
		return
	}

	act := c.mitig.OnActivate(b, row)
	for _, vr := range act.RefreshRows {
		if vr >= 0 && vr < c.cfg.Geometry.Rows {
			c.vrrQ = append(c.vrrQ, vrrReq{bank: b, row: vr})
		}
	}
	if act.RFM {
		c.rfmQ = append(c.rfmQ, rfmReq{rank: c.bankRank(b), bank: b})
	}
	if act.MetaReads > 0 || act.MetaWrites > 0 {
		c.queueMeta(b, act.MetaReads, act.MetaWrites)
	}
}

// issuePRE closes the open row of bank b.
func (c *Controller) issuePRE(b int) {
	c.events++
	bk := &c.banks[b]
	bk.openRow = -1
	bk.actReady = c.cycle + c.cRP
	c.stats.Pres++
	c.rdHits.reset(b, 0)
	c.wrHits.reset(b, 0)
}

// issueColumn issues the RD/WR for (*q)[i], removes it from the queue
// and recycles the Request.
func (c *Controller) issueColumn(q *[]*Request, i int) {
	c.events++
	req := (*q)[i]
	b := req.bank
	bk := &c.banks[b]
	c.bgColReady[c.bankGroup[b]] = c.cycle + c.cCCD
	c.hits(req.Write).remove(b)
	if req.Write {
		bk.wrReady = c.cycle + c.cCCD
		bk.rdReady = c.cycle + c.cCWL + c.cBL + c.cWTR
		bk.preReady = max(bk.preReady, c.cycle+c.cCWL+c.cBL+c.cWR)
		c.busUntil = c.cycle + c.cCWL + c.cBL
		c.stats.Writes++
	} else {
		bk.rdReady = c.cycle + c.cCCD
		bk.preReady = max(bk.preReady, c.cycle+c.cRTP)
		c.busUntil = c.cycle + c.cCL + c.cBL
		c.stats.Reads++
		latency := c.cycle + c.cCL + c.cBL + c.cfg.ExtraLatency
		if !req.Meta {
			c.stats.ReadLatencySum += latency - req.Arrival
			c.stats.ReadCount++
		}
		if req.Done != nil {
			c.completions.schedule(latency, req.Done)
			c.demandDone--
		}
	}
	*q = append((*q)[:i], (*q)[i+1:]...)
	req.Done = nil // the heap holds its own copy; don't retain it here
	c.freeReqs = append(c.freeReqs, req)
}
