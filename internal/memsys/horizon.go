package memsys

// Event-horizon surface: the controller reports how far simulated time
// can safely leap while it is idle, and accepts clock jumps over the
// proven-idle stretch. sim.Run's event-horizon engine is the caller.
//
// NextEvent returns a cycle H such that every Tick strictly before H is
// guaranteed to be a no-op (pure clock advance: no completion fires, no
// refresh transition, no command can issue). It states no scheduling
// rule of its own: the command half of H is schedule's dry run, the
// very walk Tick issues from, so the two cannot drift apart. H is
// conservative — the tick at H itself may still find nothing to do —
// but it is never late, which is what makes AdvanceTo(H-1)+Tick
// byte-identical to ticking every skipped cycle. While the controller
// is idle no deadline it reports can move, so successive NextEvent
// calls are monotonically non-decreasing until the next real event or
// external Issue.

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
// refresh-window crossing or periodic-refresh deadline, or the first
// cycle schedule's dry run finds a command ready. Always returns at
// least Cycle()+1.
func (c *Controller) NextEvent() uint64 {
	soon := c.cycle + 1
	h := c.nextRefWindow
	if len(c.completions) > 0 {
		h = min(h, c.completions[0].at)
	}
	if c.cfg.RefreshEnabled {
		for r := range c.ranks {
			if !c.ranks[r].refPending {
				h = min(h, c.ranks[r].nextRefAt)
			}
		}
	}
	if h > soon {
		h = min(h, c.schedule(false))
	}
	return max(h, soon)
}
