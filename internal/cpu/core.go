// Package cpu implements the trace-driven processor model of the
// paper's simulated system (Table 2): a 3.2 GHz core with a 4-wide
// issue/retire stage and a 128-entry instruction window. Non-memory
// instructions retire immediately; loads occupy a window slot until
// the memory system calls back; stores retire into the memory
// controller's write queue without blocking.
package cpu

import (
	"math"

	"pacram/internal/trace"
)

// Defaults from the paper's Table 2.
const (
	DefaultWindowSize = 128
	DefaultWidth      = 4
)

// loadMask indexes the in-flight load ring; the ring has one entry per
// window slot, and DefaultWindowSize is a power of two.
const loadMask = DefaultWindowSize - 1

// MemoryPort is the core's view of the memory hierarchy. Issue returns
// false when the memory system cannot accept the request this cycle
// (queue full); the core retries next cycle. For reads, done is
// invoked when data returns; for writes done is nil.
type MemoryPort interface {
	Issue(addr uint64, write bool, done func()) bool
}

// QueueProbe is optionally implemented by a MemoryPort (memsys.System
// implements it). It lets NextEvent distinguish "the memory system
// would accept the pending request" from "queue full" without side
// effects. The address is part of the probe because a multi-channel
// system routes each request to one channel's queues: a core stalled
// on a full channel must not be woken by slack on another. Ports that
// do not implement it make the core report itself always runnable,
// which is safe — the simulation loop then simply never leaps on this
// core's behalf.
type QueueProbe interface {
	CanAccept(addr uint64, write bool) bool
}

// load is one in-flight load: its window sequence number and whether
// its data has returned.
type load struct {
	seq  uint64
	done bool
}

// Core is one simulated CPU core.
//
// The instruction window is a pair of counters: instructions are
// numbered in program order, and retired..dispatched-1 are in flight.
// Bubbles and stores are complete the moment they dispatch, so only
// loads carry per-entry state, in a ring ordered by seq. Retiring
// advances retired to the oldest incomplete load (at most width), and
// dispatching a run of bubbles is one addition to dispatched.
type Core struct {
	id    int
	gen   trace.Generator
	mem   MemoryPort
	probe QueueProbe // mem, when it supports occupancy probing

	retired, dispatched uint64

	// loads holds the window's loads oldest first, starting at
	// loadHead. Every retired load has left the ring, so
	// loads[loadHead] is the window head whenever its seq equals
	// retired.
	loads     [DefaultWindowSize]load
	loadHead  int
	loadCount int

	// doneFns caches one completion closure per ring entry. An entry
	// holds at most one outstanding load at a time (a load leaves the
	// ring only once done), so the closure can be built once at
	// construction and reused — the issue path then allocates nothing.
	doneFns [DefaultWindowSize]func()

	// pending is the stalled front of the trace: bubbles left to
	// insert, then possibly a memory access not yet accepted.
	// bubblesLeft > 0 implies havePending.
	bubblesLeft int
	memRec      trace.Record
	havePending bool

	cycles   uint64
	loadsOut int

	// stats
	Loads, Stores uint64
}

// New builds a core replaying gen through mem.
func New(id int, gen trace.Generator, mem MemoryPort) *Core {
	probe, _ := mem.(QueueProbe)
	c := &Core{
		id:    id,
		gen:   gen,
		mem:   mem,
		probe: probe,
	}
	for i := range c.doneFns {
		l := &c.loads[i]
		c.doneFns[i] = func() {
			l.done = true
			c.loadsOut--
		}
	}
	return c
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Retired returns the number of retired instructions.
func (c *Core) Retired() uint64 { return c.retired }

// Cycles returns the number of elapsed cycles.
func (c *Core) Cycles() uint64 { return c.cycles }

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.retired) / float64(c.cycles)
}

// OutstandingLoads returns the number of in-flight loads.
func (c *Core) OutstandingLoads() int { return c.loadsOut }

// Tick advances the core by one cycle: retire up to width completed
// instructions from the window head, then insert up to width new
// instructions from the trace.
func (c *Core) Tick() {
	c.cycles++

	// Retire: in order, up to width, stopping at the oldest load
	// still outstanding.
	limit := min(c.retired+DefaultWidth, c.dispatched)
	for c.loadCount > 0 {
		l := &c.loads[c.loadHead]
		if l.seq >= limit {
			break
		}
		if !l.done {
			limit = l.seq
			break
		}
		c.loadHead = (c.loadHead + 1) & loadMask
		c.loadCount--
	}
	c.retired = limit

	// Dispatch.
	for n := 0; n < DefaultWidth; {
		room := DefaultWindowSize - int(c.dispatched-c.retired)
		if room == 0 {
			break
		}
		c.refillPending()
		if c.bubblesLeft > 0 {
			b := min(DefaultWidth-n, c.bubblesLeft, room)
			c.bubblesLeft -= b
			c.dispatched += uint64(b)
			n += b
			continue
		}
		// Memory access at the front.
		rec := c.memRec
		if rec.Write {
			// Stores retire once accepted by the write queue.
			if !c.mem.Issue(rec.Addr, true, nil) {
				break // write queue full; retry next cycle
			}
			c.Stores++
			c.havePending = false
			c.dispatched++
			n++
			continue
		}
		// Load: occupies a ring entry until the callback fires. The
		// entry is written before Issue so a synchronous callback
		// cannot be clobbered; it is only counted if the issue
		// succeeds.
		idx := (c.loadHead + c.loadCount) & loadMask
		c.loads[idx] = load{seq: c.dispatched}
		if !c.mem.Issue(rec.Addr, false, c.doneFns[idx]) {
			break // read queue full; retry next cycle
		}
		c.loadCount++
		c.dispatched++
		c.Loads++
		c.loadsOut++
		c.havePending = false
		n++
	}
}

// Progress returns a monotonic counter of retired and dispatched
// instructions. Two equal readings around a Tick prove the tick was a
// stall (only the cycle counter moved) — the observable behind the
// NextEvent soundness test, mirroring Controller.Events on the memory
// side.
func (c *Core) Progress() uint64 { return c.retired + c.dispatched }

// NextEvent reports the core's event horizon in the shared engine
// clock: 0 when the very next Tick can retire or dispatch something
// ("runnable now"), math.MaxUint64 while the core is provably stalled
// — in-order retire blocked on an outstanding load, and dispatch
// blocked on a full window or a full memory queue. A stalled core is
// only woken by memory-controller progress (a read completion marking
// the window head done, or a queue slot freeing), so the simulation
// loop may safely leap to the controller's own horizon while every
// core reports MaxUint64.
func (c *Core) NextEvent() uint64 {
	if c.retired < c.dispatched {
		if l := c.loads[c.loadHead]; c.loadCount == 0 || l.seq != c.retired || l.done {
			return 0 // retire can proceed
		}
	}
	if c.dispatched-c.retired < DefaultWindowSize {
		if !c.havePending || c.bubblesLeft > 0 {
			return 0 // a bubble (or a fresh trace record) can dispatch
		}
		if c.probe == nil || c.probe.CanAccept(c.memRec.Addr, c.memRec.Write) {
			return 0 // the pending memory access would be accepted
		}
	}
	return math.MaxUint64
}

// AdvanceTo fast-forwards the core's cycle counter to the engine
// cycle reached by a leap. The caller must have proven — via NextEvent
// on every component — that each skipped Tick would have been a stall,
// so only the clock needs to move. Cycles at or before the current
// counter are ignored.
func (c *Core) AdvanceTo(cycle uint64) {
	if cycle > c.cycles {
		c.cycles = cycle
	}
}

// QuietTicks returns how many of the next Ticks, up to max, are quiet:
// they call neither mem.Issue nor gen.Next, provided no load completes
// meanwhile. The count stops on the tick where Retired() first reaches
// target (a target at or below Retired() never stops it), so a caller
// leaping by the result lands exactly on that crossing. It changes
// nothing; AdvanceQuiet applies the ticks.
func (c *Core) QuietTicks(max, target uint64) uint64 {
	// Cheapest exit first, for the engine's busy path: with window
	// room, the next tick reaches the trace or the memory port unless
	// enough bubbles are pending. Retiring only adds room, so this is
	// exact for the first tick.
	if room := DefaultWindowSize - (c.dispatched - c.retired); room > 0 && uint64(c.bubblesLeft) < min(DefaultWidth, room) {
		return 0
	}
	k, _, _, _ := c.quietRun(max, target)
	return k
}

// AdvanceQuiet applies k quiet Ticks in closed form, with exactly the
// effect of k calls to Tick. QuietTicks(k, 0) must equal k, and no
// completion may arrive during the k cycles; the event-horizon engine
// guarantees the latter by never leaping past the memory system's
// horizon.
func (c *Core) AdvanceQuiet(k uint64) {
	n, head, tail, bubbles := c.quietRun(k, 0)
	if n != k {
		panic("cpu: AdvanceQuiet beyond the quiet run")
	}
	c.cycles += k
	c.retired, c.dispatched, c.bubblesLeft = head, tail, int(bubbles)
	for c.loadCount > 0 && c.loads[c.loadHead].seq < head {
		c.loadHead = (c.loadHead + 1) & loadMask
		c.loadCount--
	}
}

// quietRun walks up to max Ticks ahead on copies of the window
// counters (retired, dispatched, bubbles left) and returns how many
// are quiet (see QuietTicks) with the counters after them. Loads
// cannot complete during the walk, so the oldest outstanding load
// fixes the retire bound throughout, and every tick dispatches bubbles
// only. Two stretches are taken in one
// step: the steady state, where each tick retires width and dispatches
// width bubbles, and a stall, where the window is full behind an
// outstanding load and every further tick is a no-op. The ticks
// between them — the window filling or draining — are walked singly,
// at most a window's worth.
func (c *Core) quietRun(max, target uint64) (k, head, tail, bubbles uint64) {
	const w, size = DefaultWidth, DefaultWindowSize
	head, tail, bubbles = c.retired, c.dispatched, uint64(c.bubblesLeft)
	block := uint64(math.MaxUint64) // seq of the oldest outstanding load
	for i := 0; i < c.loadCount; i++ {
		if l := c.loads[(c.loadHead+i)&loadMask]; !l.done {
			block = l.seq
			break
		}
	}
	goal := uint64(math.MaxUint64)
	if target > c.retired {
		goal = target
	}
	for k < max {
		limit := min(block, tail)
		if limit-head >= w && bubbles >= w {
			// Steady state: occupancy stays put, so every tick retires
			// width and dispatches width until the bubbles, the run up
			// to the blocking load, the budget or the goal run out.
			j := min(bubbles/w, max-k, (goal-head-1)/w+1)
			if block != math.MaxUint64 {
				j = min(j, (block-head)/w)
			}
			head += j * w
			tail += j * w
			bubbles -= j * w
			k += j
		} else {
			r := min(w, limit-head)
			b := uint64(0)
			if used := tail - head - r; used < size {
				if b = min(w, size-used); bubbles < b {
					// The next tick dispatches past the bubbles: it
					// reaches the memory access, or gen.Next when no
					// record is pending (bubbles is then 0).
					return k, head, tail, bubbles
				}
			}
			if r == 0 && b == 0 {
				// Full window behind an outstanding load: nothing moves
				// until it completes.
				return max, head, tail, bubbles
			}
			head += r
			tail += b
			bubbles -= b
			k++
		}
		if head >= goal {
			break
		}
	}
	return k, head, tail, bubbles
}

// refillPending ensures there is a trace record being worked on.
func (c *Core) refillPending() {
	if c.havePending {
		return
	}
	rec := c.gen.Next()
	c.memRec = rec
	c.bubblesLeft = rec.Bubbles
	c.havePending = true
}
