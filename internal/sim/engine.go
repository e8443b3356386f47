package sim

import (
	"fmt"
	"math"
	"time"

	"pacram/internal/cpu"
	"pacram/internal/memsys"
	"pacram/internal/trace"
)

// Engine names for Options.Engine.
const (
	// EngineEventHorizon is the default engine. It is tick-accurate —
	// whenever any component can act, every component ticks exactly as
	// under EnginePerCycle — but when a tick provably changed nothing,
	// it leaps the clock to the minimum event horizon reported by the
	// controller and the cores instead of polling the idle cycles one
	// by one. Results are byte-identical to EnginePerCycle (enforced by
	// the parity suite in parity_test.go).
	EngineEventHorizon = "event-horizon"
	// EnginePerCycle is the reference engine: every component ticks on
	// every CPU cycle. Kept for parity testing and debugging.
	EnginePerCycle = "per-cycle"
)

// engine advances the assembled system through simulated time.
//
// NextEvent on each component is the soundness contract: it returns a
// cycle H such that every tick strictly before H is a no-op for that
// component. H may be conservative (an early wake merely costs an
// extra no-op tick and a recompute) but it must never be late, because
// the cycles in (now, H) are skipped outright. A leap moves every
// clock to H-1 and then ticks normally, so the tick that lands on H
// runs with exactly the state and cycle number the per-cycle engine
// would have had. Core tick rotation is derived from the controller
// cycle, which leaps preserve, so arbitration order is also identical.
// (Controller.Events and Core.Progress expose the matching observable:
// a tick that changes neither counter was such a no-op; the horizon
// soundness test in memsys builds on it.)
type engine struct {
	cores    []*cpu.Core
	ctrl     *memsys.System
	perCycle bool
	runnable []bool // per-core runnability, refreshed each step
	// targets holds each core's next retired-instruction milestone
	// (the warmup budget, then its measurement finish line). Quiet
	// leaps stop on the cycle a core reaches it, so Run observes
	// warmup end and per-core finish on the cycle it would per cycle.
	targets []uint64
	// prof, when non-nil, accumulates work attribution
	// (Options.Profile). Profiling is observationally passive: the
	// guards below read state but never change the tick/leap decisions.
	prof *profCollector
}

// step advances simulated time by at least one cycle: it classifies
// every core via NextEvent, leaps over the provably dead cycles in a
// channel window when everyone is stalled (see windowLeap), then
// ticks. When some core is runnable it first tries a quiet leap (see
// quietLeap), which replaces the tick. Both leaps are clamped so the
// maxCycles overrun check still fires on the exact cycle the
// per-cycle engine would report.
//
// The runnability snapshot is taken once per step. During the core
// loop a snapshot can only go stale in the safe direction: an earlier
// core's Issue may fill a queue and stall a later core mid-cycle, but
// ticking a just-stalled core is exactly the failed-retry no-op the
// per-cycle engine executes. Nothing can make a stalled core runnable
// before the controller ticks (completions and queue drains happen
// there), so skipped cores are provably inert.
func (e *engine) step(maxCycles uint64) {
	n := len(e.cores)
	if !e.perCycle {
		anyRunnable := false
		for i, c := range e.cores {
			e.runnable[i] = c.NextEvent() == 0
			anyRunnable = anyRunnable || e.runnable[i]
		}
		if !anyRunnable {
			e.windowLeap(maxCycles)
		} else if e.quietLeap(maxCycles) {
			return
		}
	}
	// Tick in the round-robin order the per-cycle engine uses (see
	// Run). Cores whose NextEvent proved this tick a stall are not
	// ticked at all — their cycle counters catch up via AdvanceTo —
	// which skips the blocked-core retry polling that dominates
	// saturated workloads.
	var phaseStart time.Time
	if e.prof != nil {
		e.prof.steps++
		phaseStart = time.Now()
	}
	cyc := e.ctrl.Cycle()
	start := int(cyc % uint64(n))
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		c := e.cores[idx]
		if !e.perCycle {
			if !e.runnable[idx] {
				// The stall replaces the Tick, so the cycle counter
				// still advances: Core.Cycles()/IPC() stay identical
				// across engines, not just Result.
				c.AdvanceTo(cyc + 1)
				if e.prof != nil {
					e.prof.coreStallSkips++
				}
				continue
			}
			c.AdvanceTo(cyc)
		}
		c.Tick()
		if e.prof != nil {
			e.prof.coreTicks++
		}
	}
	if e.prof != nil {
		now := time.Now()
		e.prof.coreNanos += int64(now.Sub(phaseStart))
		phaseStart = now
	}
	e.ctrl.Tick()
	if e.prof != nil {
		e.prof.ctrlNanos += int64(time.Since(phaseStart))
	}
}

// quietLeap advances across a quiet run: k cycles in which no core
// calls Issue or draws a trace record and the memory system changes
// nothing — runnable cores only retire and dispatch bubbles. k is the
// smallest of every runnable core's QuietTicks, the cycles left before
// the memory system's horizon, and the maxCycles clamp. Controller
// ticks before the horizon are no-ops by the NextEvent contract, so no
// completion lands mid-run; no core issues, so the horizon holds and
// the round-robin order is moot; and QuietTicks stops on each core's
// target, so warmup end and finish cycles land where the per-cycle
// engine puts them. Runnable cores apply the run in closed form
// (AdvanceQuiet), stalled ones and the memory system only move their
// clocks. It reports whether it leapt; runs shorter than two cycles
// are left to the ordinary step.
func (e *engine) quietLeap(maxCycles uint64) bool {
	var t0 time.Time
	if e.prof != nil {
		t0 = time.Now()
	}
	cyc := e.ctrl.Cycle()
	k := uint64(math.MaxUint64) - cyc
	if maxCycles != math.MaxUint64 {
		k = maxCycles + 1 - cyc // land on maxCycles+1 at most: the overrun cycle
	}
	for i, c := range e.cores {
		if e.runnable[i] {
			if k = c.QuietTicks(k, e.targets[i]); k < 2 {
				return false
			}
		}
	}
	h := e.ctrl.NextEvent()
	if h < cyc+3 {
		return false
	}
	k = min(k, h-1-cyc)
	for i, c := range e.cores {
		if e.runnable[i] {
			c.AdvanceTo(cyc)
			c.AdvanceQuiet(k)
		} else {
			c.AdvanceTo(cyc + k)
		}
	}
	e.ctrl.AdvanceTo(cyc + k)
	if e.prof != nil {
		e.prof.leaps++
		e.prof.leapCycles += k
		e.prof.leapHist.Observe(float64(k))
		e.prof.quietLeaps++
		e.prof.quietCycles += k
		e.prof.coreNanos += int64(time.Since(t0))
	}
	return true
}

// windowLeap is the stalled-core leap, at any channel count: instead
// of jumping everything to the system horizon (the minimum over
// channels — which makes every channel pay for every other channel's
// events), it advances each channel independently to one cycle before
// the earliest core-visible event, ticking each channel only at its
// own horizons, in parallel when wide enough
// (memsys.System.AdvanceWindow). Cores stay provably stalled
// throughout — the window bound is exactly "the first cycle a core
// could be woken" — so they only need their clocks moved. The leap is
// clamped to land on maxCycles+1 at most, so the overrun check fires
// on the cycle the per-cycle engine would report.
//
// A window is also a leap for profile accounting: it skips the same
// engine steps, so Steps + LeapCycles == SimCycles still holds. The
// window counters are kept for multi-channel runs only: on one channel
// a window is the plain leap to the system horizon, and counting it
// would only blur the multi-channel cost they measure. Its wall time is
// the controller ticking at its own events, so it is booked as
// controller time instead.
func (e *engine) windowLeap(maxCycles uint64) {
	h := e.ctrl.WindowHorizon()
	if h <= e.ctrl.Cycle()+1 {
		return
	}
	limit := maxCycles
	if limit != math.MaxUint64 {
		limit++ // allow landing on maxCycles+1: the overrun cycle
	}
	target := min(h, limit) - 1
	if target <= e.ctrl.Cycle() {
		return
	}
	window := e.prof != nil && e.ctrl.NumChannels() > 1
	var t0 time.Time
	if e.prof != nil {
		e.prof.leaps++
		skipped := target - e.ctrl.Cycle()
		e.prof.leapCycles += skipped
		e.prof.leapHist.Observe(float64(skipped))
		if window {
			e.prof.windows++
			e.prof.windowCycles += skipped
			t0 = time.Now()
		}
	}
	for _, c := range e.cores {
		c.AdvanceTo(target)
	}
	if e.prof != nil && !window {
		t0 = time.Now()
	}
	ws := e.ctrl.AdvanceWindow(target)
	if window {
		e.prof.windowNanos += int64(time.Since(t0))
		e.prof.windowChannelTicks += uint64(ws.ChannelTicks)
		e.prof.windowChannelsAdvanced += uint64(ws.ChannelsAdvanced)
		e.prof.mergeNanos += ws.MergeNanos
		if ws.Parallel {
			e.prof.parallelWindows++
		}
	} else if e.prof != nil {
		e.prof.ctrlNanos += int64(time.Since(t0))
	}
}

// stallError reports which core is stuck when the cycle budget runs
// out, naming its generator and progress. base holds each core's
// retired count at measurement start (nil during warmup); budget is
// the per-core instruction target.
func (e *engine) stallError(phase string, gens []trace.Generator, base []uint64, budget, maxCycles uint64) error {
	worst := -1
	var worstDone uint64
	for i, c := range e.cores {
		done := c.Retired()
		if base != nil {
			done -= base[i]
		}
		if done >= budget {
			continue
		}
		if worst == -1 || done < worstDone {
			worst, worstDone = i, done
		}
	}
	if worst == -1 {
		// Unreachable: the budget check found an unfinished core.
		return fmt.Errorf("sim: %s exceeded %d cycles", phase, maxCycles)
	}
	return fmt.Errorf("sim: %s: core %d (%s) stalled at %d/%d instructions after %d cycles",
		phase, worst, gens[worst].Name(), worstDone, budget, maxCycles)
}
