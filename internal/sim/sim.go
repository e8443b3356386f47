// Package sim assembles the full simulated system of the paper's
// evaluation (§9.1): trace-driven cores, the DDR5 memory controller,
// a RowHammer mitigation mechanism, and optionally PaCRAM reducing the
// mechanism's preventive-refresh latency. It is the engine behind
// Figs. 3 and 16-19.
//
// # Time advancement: the event-horizon contract
//
// Run drives the system with an event-horizon engine by default
// (Options.Engine): components tick cycle by cycle while anyone can
// act, and when a tick provably changes nothing the clock leaps to the
// minimum of the component horizons. The contract the components
// honor:
//
//   - NextEvent (memsys.Controller, cpu.Core) returns a cycle H such
//     that every tick strictly before H is a no-op for that component.
//     H may be conservative (an early wake merely costs a recompute)
//     but never late. While a component is idle its reported horizon
//     can only grow or stay put — no gating deadline moves without a
//     state change, so a computed leap target cannot be invalidated
//     mid-leap by the component itself; only an external event (a core
//     issuing a request) can shorten it, and the engine recomputes
//     horizons after every tick in which anything happened.
//   - AdvanceTo jumps a component's clock without modeling the skipped
//     cycles. It is exact, not approximate, because every busy-time
//     statistic (DemandBusy, RefBusy, PrevRefBusy) is accumulated as
//     an interval when its command issues, never by per-cycle polling.
//   - cpu.Core.QuietTicks and AdvanceQuiet extend leaps to quiet runs,
//     where some core is runnable but every core only retires and
//     dispatches non-memory instructions until the memory system's
//     horizon: the run is applied in closed form instead of ticked.
//
// Under this contract the two engines are byte-identical — same
// Result, same Stats, same Energy, bit for bit — which parity_test.go
// enforces over every catalog scenario and the adversarial workloads.
package sim

import (
	"fmt"

	pacram "pacram/internal/core"
	"pacram/internal/cpu"
	"pacram/internal/ddr"
	"pacram/internal/energy"
	"pacram/internal/memsys"
	"pacram/internal/mitigation"
	"pacram/internal/trace"
)

// Options configures one simulation run.
type Options struct {
	// MemCfg is the memory-system configuration.
	MemCfg memsys.Config
	// Mitigation names the mechanism ("" or "None" for the baseline).
	Mitigation string
	// NRH is the RowHammer threshold the mechanism is configured for
	// (before PaCRAM scaling).
	NRH int
	// PaCRAM, when non-nil, reduces preventive-refresh latency and
	// scales the mechanism's NRH per the derived configuration.
	PaCRAM *pacram.Config
	// PeriodicExtension additionally reduces periodic-refresh latency
	// (Appendix B); requires PaCRAM.
	PeriodicExtension bool
	// PeriodicFactor, when nonzero, runs every periodic refresh with
	// its restoration portion cut to this fraction of nominal tRAS:
	// tRFC scales by (f·tRAS+tRP)/(tRAS+tRP) on every channel, while
	// preventive refreshes stay nominal (the Appendix B / Fig. 19
	// sweep). Must be in (0, 1]; cannot be combined with PaCRAM.
	PeriodicFactor float64
	// Workloads run one per core.
	Workloads []trace.Spec
	// Generators, when non-empty, replaces Workloads: one pre-built
	// generator per core (e.g. file-trace replays via trace.NewReplay).
	Generators []trace.Generator
	// Instructions is the per-core instruction budget after warmup.
	Instructions uint64
	// Warmup instructions per core before measurement.
	Warmup uint64
	// MaxCycles bounds runaway simulations (0 = 400x instructions).
	MaxCycles uint64
	Seed      uint64
	// Engine selects the time-advancement strategy: EngineEventHorizon
	// ("" = default) or EnginePerCycle. Both produce byte-identical
	// results; the per-cycle loop exists for parity testing.
	Engine string
	// Profile, when true, attributes the run's simulated work per
	// layer into Result.Profile: step/tick counts, event-horizon leap
	// sizes, refresh/mitigation command counts, and wall-clock
	// attribution (cycles per second, core vs controller time).
	// Profiling is observationally passive — every other Result field
	// is bit-identical with it on or off — and the field is omitted
	// from JSON when disabled, so default output bytes are unchanged.
	Profile bool
}

// DefaultOptions returns a fast, paper-shaped configuration for the
// given workloads.
func DefaultOptions(workloads ...trace.Spec) Options {
	return Options{
		MemCfg:       memsys.DefaultConfig(),
		NRH:          1024,
		Workloads:    workloads,
		Instructions: 150_000,
		Warmup:       15_000,
		Seed:         0x51317,
	}
}

// Result is the outcome of one run.
type Result struct {
	// IPC per core over the measurement interval.
	IPC []float64
	// Cycles is the measured interval length.
	Cycles uint64
	// Stats are the controller statistics over the measurement
	// interval (warmup subtracted).
	Stats memsys.Stats
	// Energy is the DRAM energy over the measurement interval.
	Energy energy.Breakdown
	// ChannelStats break Stats down per memory channel (summing the
	// counter fields reproduces Stats; Cycles is the shared clock).
	// Nil for single-channel runs, whose Result is unchanged from the
	// single-channel engine.
	ChannelStats []memsys.Stats `json:",omitempty"`
	// PrevRefBusyFraction is Fig. 3's metric.
	PrevRefBusyFraction float64
	// PartialFraction is the share of preventive refreshes issued at
	// reduced latency over the measurement interval (0 without PaCRAM).
	PartialFraction float64
	// ScaledNRH is the threshold the mechanism actually ran with.
	ScaledNRH int
	// Profile is the per-layer work attribution, nil unless
	// Options.Profile was set (and then omitted from JSON, keeping
	// cached result bytes identical).
	Profile *Profile `json:",omitempty"`
}

// SumIPC returns total system throughput.
func (r Result) SumIPC() float64 {
	s := 0.0
	for _, v := range r.IPC {
		s += v
	}
	return s
}

// windowMode is the channel-window parallelism policy applied to every
// run's System. The zero value is memsys.WindowAuto; it is a package
// variable only so the parity suite can force memsys.WindowParallel
// through the full engine stack (the fan-out must be byte-identical at
// any GOMAXPROCS, including 1, where WindowAuto would never choose it).
var windowMode memsys.WindowMode

// Run executes one simulation.
func Run(opt Options) (Result, error) {
	if len(opt.Workloads) == 0 && len(opt.Generators) == 0 {
		return Result{}, fmt.Errorf("sim: no workloads")
	}
	if opt.Instructions == 0 {
		return Result{}, fmt.Errorf("sim: zero instruction budget")
	}
	perCycle := false
	switch opt.Engine {
	case "", EngineEventHorizon:
	case EnginePerCycle:
		perCycle = true
	default:
		return Result{}, fmt.Errorf("sim: unknown engine %q (have: %s, %s)",
			opt.Engine, EngineEventHorizon, EnginePerCycle)
	}

	// Mitigation and refresh-policy state is strictly per channel (see
	// memsys.System): each channel gets its own mechanism and PaCRAM
	// policy instance, sized for one channel's banks. Channel 0 uses
	// the run seed unchanged, so single-channel runs are byte-identical
	// to the pre-System engine.
	geo := opt.MemCfg.Geometry
	channelBanks := geo.Ranks * geo.Banks()

	nrh := opt.NRH
	var policies []memsys.RefreshPolicy
	switch {
	case opt.PeriodicFactor != 0:
		f := opt.PeriodicFactor
		if f < 0 || f > 1 {
			return Result{}, fmt.Errorf("sim: PeriodicFactor %g outside (0, 1]", f)
		}
		if opt.PaCRAM != nil {
			return Result{}, fmt.Errorf("sim: PeriodicFactor cannot be combined with PaCRAM")
		}
		t := opt.MemCfg.Timing
		pol := periodicPolicy{
			NominalPolicy: memsys.NominalPolicy{TRASNs: t.TRAS},
			scale:         (f*t.TRAS + t.TRP) / (t.TRAS + t.TRP),
		}
		policies = make([]memsys.RefreshPolicy, geo.Channels)
		for ch := range policies {
			policies[ch] = pol
		}
	case opt.PaCRAM != nil:
		nrh = opt.PaCRAM.ScaledNRH(opt.NRH)
		policies = make([]memsys.RefreshPolicy, geo.Channels)
		for ch := range policies {
			pol := pacram.NewPolicy(*opt.PaCRAM, channelBanks, geo.Rows)
			if opt.PeriodicExtension {
				policies[ch] = pacram.NewPeriodicPolicy(pol)
			} else {
				policies[ch] = pol
			}
		}
	}

	var mitigs []memsys.Mitigation
	if opt.Mitigation != "" && opt.Mitigation != "None" {
		mitigs = make([]memsys.Mitigation, geo.Channels)
		for ch := range mitigs {
			mcfg := mitigation.Config{
				NRH:         nrh,
				Rows:        geo.Rows,
				Banks:       channelBanks,
				BlastRadius: opt.MemCfg.BlastRadius,
				WindowActs:  int(opt.MemCfg.Timing.TREFW / opt.MemCfg.Timing.TRC()),
				Seed:        ChannelSeed(opt.Seed, ch),
			}
			var err error
			mitigs[ch], err = mitigation.New(opt.Mitigation, mcfg)
			if err != nil {
				return Result{}, err
			}
		}
	}

	ctrl, err := memsys.NewSystem(opt.MemCfg, mitigs, policies)
	if err != nil {
		return Result{}, err
	}
	ctrl.SetWindowMode(windowMode)
	// The event-horizon engine elides provably no-op channel ticks via
	// the horizon cache; the per-cycle engine stays the pure lockstep
	// reference (every channel scans every cycle).
	ctrl.SetTickElision(!perCycle)
	// Multi-channel window advancement may lazily start per-channel
	// worker goroutines; stop them when the run ends.
	defer ctrl.Close()

	gens := opt.Generators
	if len(gens) == 0 {
		gens = make([]trace.Generator, len(opt.Workloads))
		for i, spec := range opt.Workloads {
			gen, err := trace.New(spec, WorkloadSeed(opt.Seed, i))
			if err != nil {
				return Result{}, err
			}
			gens[i] = gen
		}
	}
	cores := make([]*cpu.Core, len(gens))
	for i, gen := range gens {
		cores[i] = cpu.New(i, gen, ctrl)
	}

	maxCycles := opt.MaxCycles
	if maxCycles == 0 {
		maxCycles = 400 * (opt.Warmup + opt.Instructions)
	}

	// Round-robin core priority: the controller exposes one shared
	// read queue, so a fixed tick order would hand every freed queue
	// slot to the lowest-numbered bandwidth hog (an adversarial
	// hammer core can starve later cores indefinitely). Rotating who
	// issues first each cycle models the per-requestor arbiter real
	// controllers place in front of the queue. The rotation is derived
	// from the controller cycle, which event-horizon leaps preserve,
	// so both engines arbitrate identically (see engine.go).
	eng := &engine{
		cores:    cores,
		ctrl:     ctrl,
		perCycle: perCycle,
		runnable: make([]bool, len(cores)),
		targets:  make([]uint64, len(cores)),
	}
	if opt.Profile {
		eng.prof = newProfCollector()
	}

	// Warmup.
	for i := range eng.targets {
		eng.targets[i] = opt.Warmup
	}
	for !allRetired(cores, opt.Warmup) {
		eng.step(maxCycles)
		if ctrl.Cycle() > maxCycles {
			return Result{}, eng.stallError("warmup", gens, nil, opt.Warmup, maxCycles)
		}
	}
	baseStats := ctrl.Stats()
	baseChannelStats := ctrl.ChannelStats()
	baseCycle := ctrl.Cycle()
	baseRetired := make([]uint64, len(cores))
	for i, c := range cores {
		baseRetired[i] = c.Retired()
		eng.targets[i] = baseRetired[i] + opt.Instructions
	}

	// Measurement: run until every core retires its budget; record
	// each core's finish cycle for per-core IPC.
	finish := make([]uint64, len(cores))
	for {
		done := true
		for i, c := range cores {
			if finish[i] == 0 {
				if c.Retired()-baseRetired[i] >= opt.Instructions {
					finish[i] = ctrl.Cycle()
				} else {
					done = false
				}
			}
		}
		if done {
			break
		}
		eng.step(maxCycles)
		if ctrl.Cycle() > maxCycles {
			return Result{}, eng.stallError("measurement", gens, baseRetired, opt.Instructions, maxCycles)
		}
	}

	res := Result{
		IPC:       make([]float64, len(cores)),
		Cycles:    ctrl.Cycle() - baseCycle,
		ScaledNRH: nrh,
	}
	for i := range cores {
		res.IPC[i] = float64(opt.Instructions) / float64(finish[i]-baseCycle)
	}
	res.Stats = subStats(ctrl.Stats(), baseStats)
	res.Stats.Cycles = res.Cycles
	if geo.Channels > 1 {
		res.ChannelStats = make([]memsys.Stats, geo.Channels)
		for ch, st := range ctrl.ChannelStats() {
			res.ChannelStats[ch] = subStats(st, baseChannelStats[ch])
			res.ChannelStats[ch].Cycles = res.Cycles
		}
	}
	res.PrevRefBusyFraction = res.Stats.PrevRefBusyFraction(geo.TotalBanks())
	res.Energy = energy.Default().Compute(res.Stats, opt.MemCfg.Timing, opt.MemCfg.CPUFreqGHz,
		geo.Channels*geo.Ranks)
	if tot := res.Stats.VRRFull + res.Stats.VRRPartial; tot > 0 {
		res.PartialFraction = float64(res.Stats.VRRPartial) / float64(tot)
	}
	if eng.prof != nil {
		engineName := opt.Engine
		if engineName == "" {
			engineName = EngineEventHorizon
		}
		total := ctrl.Stats()
		res.Profile = eng.prof.report(engineName, ctrl.Cycle(), total.Refs, total.RFMs, total.VRRs)
	}
	return res, nil
}

// ChannelSeed is the per-channel mitigation seed Run derives from the
// run seed: channel ch's mechanism instance is seeded with
// ChannelSeed(opt.Seed, ch). Channel 0 uses the base seed unchanged,
// which keeps single-channel results byte-identical to the
// pre-multi-channel engine.
func ChannelSeed(base uint64, ch int) uint64 {
	return base + uint64(ch)*0xB5AD4ECEDA1CE2A9
}

// WorkloadSeed is the per-core generator seed Run derives from the
// run seed: core i's workload stream is seeded with WorkloadSeed(
// opt.Seed, i). Callers assembling Options.Generators themselves
// (mixed synthetic/attacker scenarios) use it to keep a given core's
// stream identical to the Workloads path.
func WorkloadSeed(base uint64, core int) uint64 {
	return base + uint64(core)*0x9E37
}

// periodicPolicy is Options.PeriodicFactor's refresh policy: nominal
// preventive refreshes, every periodic refresh scaled by a constant.
// It is stateless, so all channels share one value.
type periodicPolicy struct {
	memsys.NominalPolicy
	scale float64
}

// PeriodicScale implements memsys.RefreshPolicy.
func (p periodicPolicy) PeriodicScale(float64) float64 { return p.scale }

func allRetired(cores []*cpu.Core, n uint64) bool {
	for _, c := range cores {
		if c.Retired() < n {
			return false
		}
	}
	return true
}

// subStats subtracts a baseline snapshot from a later snapshot.
func subStats(a, b memsys.Stats) memsys.Stats {
	a.Acts -= b.Acts
	a.Pres -= b.Pres
	a.Reads -= b.Reads
	a.Writes -= b.Writes
	a.Refs -= b.Refs
	a.RFMs -= b.RFMs
	a.VRRs -= b.VRRs
	a.VRRFull -= b.VRRFull
	a.VRRPartial -= b.VRRPartial
	a.MetaReads -= b.MetaReads
	a.MetaWrites -= b.MetaWrites
	a.DemandBusy -= b.DemandBusy
	a.RefBusy -= b.RefBusy
	a.PrevRefBusy -= b.PrevRefBusy
	a.VRRRestoreNs -= b.VRRRestoreNs
	a.RefRestoreNs -= b.RefRestoreNs
	a.ReadLatencySum -= b.ReadLatencySum
	a.ReadCount -= b.ReadCount
	return a
}

// SmallMemConfig returns a scaled-down memory configuration for tests:
// fewer rows per bank keeps mitigation state small while preserving
// timing behaviour.
func SmallMemConfig() memsys.Config {
	cfg := memsys.DefaultConfig()
	g := ddr.PaperSystem()
	g.Rows = 4096
	cfg.Geometry = g
	return cfg
}
