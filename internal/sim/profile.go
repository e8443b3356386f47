package sim

import (
	"time"

	"pacram/internal/telemetry"
)

// Profile attributes one run's simulated work per layer. It is
// collected only when Options.Profile is set and reported as
// Result.Profile; with profiling off the field is omitted from JSON,
// so default output bytes are untouched.
//
// Engines legitimately differ here — the per-cycle engine never leaps
// — so parity comparisons strip Profile before comparing Results.
// Wall-clock fields are machine- and load-dependent by nature; the
// cycle and tick counts are deterministic per (options, engine).
type Profile struct {
	// Engine is the time-advancement strategy that produced the run.
	Engine string `json:"engine"`
	// SimCycles is the total simulated extent, warmup included.
	SimCycles uint64 `json:"simCycles"`
	// Steps counts engine steps — each one controller tick plus a pass
	// over the cores. Under the event-horizon engine this is the work
	// actually executed; SimCycles - Steps cycles were leapt over.
	Steps uint64 `json:"steps"`
	// CoreTicks counts core Tick calls executed; CoreStallSkips counts
	// the ticks replaced by AdvanceTo because NextEvent proved them
	// no-ops (always 0 under the per-cycle engine).
	CoreTicks      uint64 `json:"coreTicks"`
	CoreStallSkips uint64 `json:"coreStallSkips"`
	// Leaps counts event-horizon leaps; LeapCycles the cycles they
	// skipped; LeapHist the leap-size distribution (bounds in cycles).
	Leaps      uint64                      `json:"leaps"`
	LeapCycles uint64                      `json:"leapCycles"`
	LeapHist   telemetry.HistogramSnapshot `json:"leapHist"`
	// Stalled-core leaps are channel windows at any channel count
	// (each channel ticks only at its own event horizons, optionally on
	// its own goroutine; see memsys.System.AdvanceWindow). On
	// multi-channel runs every window is counted here and also as a
	// leap above — it skips the same engine steps — so Windows ≤ Leaps
	// and Steps + LeapCycles == SimCycles still holds.
	// WindowChannelTicks counts channel ticks executed inside windows;
	// WindowChannelsAdvanced sums, over windows, the channels that
	// ticked at least once; ParallelWindows counts windows fanned out
	// to per-channel goroutines. On one channel a window is the plain
	// leap to the system horizon and is counted as a leap only, so all
	// of these stay zero.
	Windows                uint64 `json:"windows,omitempty"`
	WindowCycles           uint64 `json:"windowCycles,omitempty"`
	WindowChannelTicks     uint64 `json:"windowChannelTicks,omitempty"`
	WindowChannelsAdvanced uint64 `json:"windowChannelsAdvanced,omitempty"`
	ParallelWindows        uint64 `json:"parallelWindows,omitempty"`
	// QuietLeaps counts leaps across quiet runs — stretches where some
	// core is runnable but only retires and dispatches non-memory
	// instructions while the memory system idles — and QuietCycles the
	// cycles they covered. Like windows they are a subset of Leaps and
	// LeapCycles.
	QuietLeaps  uint64 `json:"quietLeaps,omitempty"`
	QuietCycles uint64 `json:"quietCycles,omitempty"`
	// Refreshes/RFMs/PreventiveRefreshes count the refresh-layer and
	// mitigation-layer commands issued over the whole run (warmup
	// included), attributing simulated memory work per layer.
	Refreshes           uint64 `json:"refreshes"`
	RFMs                uint64 `json:"rfms"`
	PreventiveRefreshes uint64 `json:"preventiveRefreshes"`
	// WallNanos is the wall time spent simulating (setup excluded);
	// CoreNanos and CtrlNanos split it between the core tick loop (and
	// quiet leaps, which only advance cores) and controller ticks (on one
	// channel, stalled leaps' controller advances too; leap bookkeeping
	// and loop overhead make up the rest). WindowNanos is
	// the slice spent inside multi-channel windows and MergeNanos,
	// within that, replaying buffered audit callbacks.
	// CyclesPerSecond is SimCycles over WallNanos.
	WallNanos       int64   `json:"wallNanos"`
	CoreNanos       int64   `json:"coreNanos"`
	CtrlNanos       int64   `json:"ctrlNanos"`
	WindowNanos     int64   `json:"windowNanos,omitempty"`
	MergeNanos      int64   `json:"mergeNanos,omitempty"`
	CyclesPerSecond float64 `json:"cyclesPerSecond"`
}

// leapBuckets are the leap-size histogram bounds, in cycles: powers of
// four from 4 to ~1M, resolving both the short in-burst leaps and the
// refresh-interval giants.
func leapBuckets() []float64 {
	out := make([]float64, 0, 10)
	for v := 4.0; v <= 1<<20; v *= 4 {
		out = append(out, v)
	}
	return out
}

// profCollector is the engine-side accumulator behind Options.Profile.
// A nil collector (profiling off) costs the engine one predictable
// branch per step; no timestamps are taken.
type profCollector struct {
	steps          uint64
	coreTicks      uint64
	coreStallSkips uint64
	leaps          uint64
	leapCycles     uint64
	leapHist       *telemetry.Histogram

	windows                uint64
	windowCycles           uint64
	windowChannelTicks     uint64
	windowChannelsAdvanced uint64
	parallelWindows        uint64

	quietLeaps  uint64
	quietCycles uint64

	coreNanos   int64
	ctrlNanos   int64
	windowNanos int64
	mergeNanos  int64
	start       time.Time
}

func newProfCollector() *profCollector {
	return &profCollector{
		leapHist: telemetry.NewHistogram(leapBuckets()),
		start:    time.Now(),
	}
}

// report assembles the externally visible Profile.
func (p *profCollector) report(engine string, simCycles, refs, rfms, vrrs uint64) *Profile {
	wall := time.Since(p.start)
	prof := &Profile{
		Engine:              engine,
		SimCycles:           simCycles,
		Steps:               p.steps,
		CoreTicks:           p.coreTicks,
		CoreStallSkips:      p.coreStallSkips,
		Leaps:               p.leaps,
		LeapCycles:          p.leapCycles,
		LeapHist:            p.leapHist.Snapshot(),
		Refreshes:           refs,
		RFMs:                rfms,
		PreventiveRefreshes: vrrs,

		Windows:                p.windows,
		WindowCycles:           p.windowCycles,
		WindowChannelTicks:     p.windowChannelTicks,
		WindowChannelsAdvanced: p.windowChannelsAdvanced,
		ParallelWindows:        p.parallelWindows,
		QuietLeaps:             p.quietLeaps,
		QuietCycles:            p.quietCycles,

		WallNanos:   int64(wall),
		CoreNanos:   p.coreNanos,
		CtrlNanos:   p.ctrlNanos,
		WindowNanos: p.windowNanos,
		MergeNanos:  p.mergeNanos,
	}
	if wall > 0 {
		prof.CyclesPerSecond = float64(simCycles) / wall.Seconds()
	}
	return prof
}
