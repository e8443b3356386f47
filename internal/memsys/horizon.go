package memsys

import "math/bits"

// Event-horizon surface: the controller reports how far simulated time
// can safely leap while it is idle, and accepts clock jumps over the
// proven-idle stretch. sim.Run's event-horizon engine is the caller.
//
// The contract mirrors Tick exactly. NextEvent returns a cycle H such
// that every Tick strictly before H is guaranteed to be a no-op (pure
// clock advance: no completion fires, no refresh transition, no
// command can issue). H is conservative — the tick at H itself may
// still find nothing to do — but it is never late, which is what makes
// AdvanceTo(H-1)+Tick byte-identical to ticking every skipped cycle.
// While the controller is idle no deadline it reports can move, so
// successive NextEvent calls are monotonically non-decreasing until
// the next real event or external Issue.

// Events returns a monotonic count of controller state changes:
// commands issued (ACT/PRE/RD/WR/REF/RFM/VRR), completions fired,
// refresh-window crossings and refreshes becoming pending. Two equal
// readings around a Tick prove that tick changed nothing but the
// clock, so the caller may consult NextEvent and leap.
func (c *Controller) Events() uint64 { return c.events }

// CanAccept reports whether Issue would accept a request of the given
// kind right now (a pure queue-occupancy probe, no side effects).
// Cores use it to tell "memory would take my request" from "queue
// full" when computing their own event horizon.
func (c *Controller) CanAccept(write bool) bool {
	if write {
		return len(c.writeQ) < c.cfg.WriteQueue
	}
	return len(c.readQ) < c.cfg.ReadQueue
}

// AdvanceTo jumps the controller clock to cycle without modeling the
// skipped cycles. The caller must have proven — via NextEvent — that
// every skipped Tick would have been a no-op; under that guarantee the
// jump is exact, not approximate: all busy-time statistics (DemandBusy,
// RefBusy, PrevRefBusy) are accumulated as intervals at command issue,
// never per cycle, so only the clock itself needs to move. Cycles at
// or before the current one are ignored.
func (c *Controller) AdvanceTo(cycle uint64) {
	if cycle <= c.cycle {
		return
	}
	c.cycle = cycle
	c.stats.Cycles = cycle
}

// NextEvent returns the earliest future cycle at which Tick could do
// anything beyond advancing the clock: the next scheduled completion,
// refresh-window crossing, periodic-refresh deadline, or the earliest
// cycle a queued REF/RFM/VRR or demand command could issue. Every
// gating condition in the Tick priority chain contributes its ready
// time; the minimum is the horizon. Always returns at least Cycle()+1.
func (c *Controller) NextEvent() uint64 {
	h := ^uint64(0)
	wake := func(at uint64) {
		if at <= c.cycle {
			at = c.cycle + 1
		}
		if at < h {
			h = at
		}
	}

	// Sections are ordered by how often they bound the horizon, and
	// the scan aborts once the minimum possible value is reached.
	soonest := c.cycle + 1

	if len(c.completions) > 0 {
		wake(c.completions[0].at)
		if h == soonest {
			return h
		}
	}
	wake(c.nextRefWindow)

	banksPerRank := c.cfg.Geometry.Banks()
	for r := range c.ranks {
		rk := &c.ranks[r]
		if c.cfg.RefreshEnabled && !rk.refPending {
			wake(rk.nextRefAt)
		}
		if !rk.refPending {
			continue
		}
		// tryRefresh: the rank must be free, then every bank closed and
		// idle; open banks are precharged as soon as canPRE allows.
		if c.cycle < rk.busyTill {
			wake(rk.busyTill)
			continue
		}
		base := r * banksPerRank
		allIdle := true
		for b := base; b < base+banksPerRank; b++ {
			bk := &c.banks[b]
			switch {
			case bk.openRow != -1:
				allIdle = false
				wake(max(bk.preReady, bk.busyTill))
			case c.cycle < bk.busyTill:
				allIdle = false
				wake(bk.busyTill)
			}
		}
		if allIdle {
			wake(c.cycle + 1) // REF issues on the very next tick
		}
	}

	if h == soonest {
		return h
	}

	for i := range c.rfmQ {
		req := &c.rfmQ[i]
		if rk := &c.ranks[req.rank]; c.cycle < rk.busyTill {
			wake(rk.busyTill)
			continue
		}
		bk := &c.banks[req.bank]
		switch {
		case bk.openRow != -1:
			wake(max(bk.preReady, bk.busyTill))
		case c.cycle < bk.busyTill:
			wake(bk.busyTill)
		default:
			wake(c.cycle + 1)
		}
	}

	for i := range c.vrrQ {
		req := &c.vrrQ[i]
		if rk := &c.ranks[c.bankRank(req.bank)]; c.cycle < rk.busyTill {
			wake(rk.busyTill)
			continue
		}
		bk := &c.banks[req.bank]
		if bk.openRow != -1 {
			wake(max(bk.preReady, bk.busyTill))
		} else {
			wake(max(bk.busyTill, bk.actReady))
		}
	}

	// tryDemand. Ready read columns take priority unconditionally, so
	// every row-hit read contributes its column-ready time. All hits on
	// one bank share every gating deadline (bank timing, its group's
	// tCCD_L, the bus), so the row-hit index's banks are the candidates.
	wake(c.columnHorizon(false))
	if h == soonest {
		return h
	}
	// Mirror tryDemand's drain hysteresis: the flag is re-derived from
	// queue occupancy at the start of every demand pass, so the next
	// Tick may flip it even though nothing else changed. Queue lengths
	// are fixed until that tick runs, which makes this projection exact
	// for the whole leap.
	draining := c.draining
	if !draining && len(c.writeQ) >= int(float64(c.cfg.WriteQueue)*c.cfg.DrainHi) {
		draining = true
	}
	if draining && len(c.writeQ) <= int(float64(c.cfg.WriteQueue)*c.cfg.DrainLo) {
		draining = false
	}
	useWrite := draining || len(c.readQ) == 0
	if useWrite {
		wake(c.columnHorizon(true))
		if h == soonest {
			return h
		}
	}
	// FCFS: the head of the active queue makes row progress (ACT or
	// PRE). Row hits are covered by the column scans above.
	var head *Request
	if useWrite {
		if len(c.writeQ) > 0 {
			head = c.writeQ[0]
		}
	} else {
		head = c.readQ[0]
	}
	if head != nil {
		b := head.bank
		bk := &c.banks[b]
		switch {
		case bk.openRow == -1:
			rk := &c.ranks[c.bankRank(b)]
			// A pending refresh blocks ACTs entirely; its own issue time
			// is covered by the refresh candidates above.
			if !rk.refPending {
				at := max(bk.busyTill, bk.actReady, rk.busyTill)
				if rk.lastAct != 0 {
					at = max(at, rk.lastAct+c.cRRD)
				}
				if oldest := rk.lastActs[rk.actIdx]; oldest != 0 {
					at = max(at, oldest+c.cFAW)
				}
				wake(at)
			}
		case bk.openRow != head.Addr.Row:
			wake(max(bk.busyTill, bk.preReady))
		}
	}
	return h
}

// columnHorizon returns the earliest cycle a read (or write) column
// command could issue: the minimum over the row-hit index's banks of
// their column-ready deadlines (^0 if no queued request hits an open
// row). It stops early once the minimum reaches Cycle()+1, below which
// NextEvent clamps anyway.
func (c *Controller) columnHorizon(write bool) uint64 {
	busAt := satSub(c.busUntil, c.cCL)
	if write {
		busAt = satSub(c.busUntil, c.cCWL)
	}
	h := ^uint64(0)
	for w, word := range c.hits(write).set {
		for word != 0 {
			b := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if at := max(c.columnReadyAt(b, write), busAt); at < h {
				h = at
				if h <= c.cycle+1 {
					return h
				}
			}
		}
	}
	return h
}

// satSub is a - b saturating at zero.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
