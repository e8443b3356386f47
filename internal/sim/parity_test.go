package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pacram/internal/chips"
	pacram "pacram/internal/core"
	"pacram/internal/ddr"
	"pacram/internal/memsys"
	"pacram/internal/trace"
)

// runBoth executes the same configuration under the per-cycle and the
// event-horizon engines and requires byte-identical Results. Options
// must carry Workloads (not Generators) or be rebuilt by the caller —
// generators are stateful, so each engine run needs a fresh set.
func runBoth(t *testing.T, name string, build func() Options) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		ref := build()
		ref.Engine = EnginePerCycle
		want, err := Run(ref)
		if err != nil {
			t.Fatalf("per-cycle engine: %v", err)
		}
		ev := build()
		ev.Engine = EngineEventHorizon
		got, err := Run(ev)
		if err != nil {
			t.Fatalf("event-horizon engine: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engines diverged:\nper-cycle:     %+v\nevent-horizon: %+v", want, got)
		}
	})
}

func parityOpts(t *testing.T, workloads ...string) func() Options {
	t.Helper()
	specs := make([]trace.Spec, len(workloads))
	for i, w := range workloads {
		s, err := trace.SpecByName(w)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	return func() Options {
		opt := DefaultOptions(specs...)
		opt.MemCfg = SmallMemConfig()
		opt.Instructions = 8_000
		opt.Warmup = 800
		return opt
	}
}

// TestEngineParitySynthetic covers the synthetic catalog: single-core
// memory-bound and compute-bound workloads, a four-core mix, every
// mechanism, PaCRAM operating points, and refresh-off / tRFC-scaled
// memory — the state-space corners of the controller's horizon logic.
func TestEngineParitySynthetic(t *testing.T) {
	runBoth(t, "baseline-lbm", parityOpts(t, "470.lbm"))
	runBoth(t, "compute-povray", parityOpts(t, "453.povray"))

	mix := trace.Mixes()[0]
	names := make([]string, len(mix.Specs))
	for i := range mix.Specs {
		names[i] = mix.Specs[i].Name
	}
	runBoth(t, "mix-4core", parityOpts(t, names...))

	// Compute-heavy cores spend most cycles in quiet runs (bubbles
	// only, memory idle), which the event-horizon engine leaps in
	// closed form. Three of them beside a memory-bound core make the
	// leap's bound alternate between the cores and the controller.
	runBoth(t, "compute-mix", parityOpts(t, "453.povray", "453.povray", "453.povray", "429.mcf"))
	// Budgets off the 4-wide retire grid put warmup end and each
	// core's finish inside a bubble run: a quiet leap must stop on the
	// exact crossing cycle.
	for _, w := range [][]string{{"453.povray"}, {"453.povray", "429.mcf"}} {
		base := parityOpts(t, w...)
		runBoth(t, "odd-budgets-"+strings.Join(w, "+"), func() Options {
			opt := base()
			opt.Instructions = 8_003
			opt.Warmup = 801
			return opt
		})
	}

	for _, mech := range []string{"PARA", "RFM", "PRAC", "Hydra", "Graphene"} {
		base := parityOpts(t, "429.mcf")
		runBoth(t, "mitigation-"+mech, func() Options {
			opt := base()
			opt.Mitigation = mech
			opt.NRH = 64
			return opt
		})
	}

	mod, err := chips.ByID("H5")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := pacram.Derive(mod, 4, 64, ddr.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	base := parityOpts(t, "429.mcf")
	runBoth(t, "pacram-rfm", func() Options {
		opt := base()
		opt.Mitigation = "RFM"
		opt.NRH = 64
		opt.PaCRAM = &cfg
		return opt
	})
	runBoth(t, "pacram-periodic-extension", func() Options {
		opt := base()
		opt.Mitigation = "PARA"
		opt.NRH = 64
		opt.PaCRAM = &cfg
		opt.PeriodicExtension = true
		return opt
	})

	runBoth(t, "refresh-off", func() Options {
		opt := base()
		opt.MemCfg.RefreshEnabled = false
		return opt
	})
	runBoth(t, "trfc-scaled", func() Options {
		opt := base()
		opt.MemCfg.Timing = opt.MemCfg.Timing.ScaleTRFC(4.42)
		return opt
	})
}

// TestEngineParityAdversarial covers the attacker and phased
// generators: queue-saturating same-bank hammers beside victims, and
// phase-switching streams — the workloads that exercise rotation
// arbitration and full-queue stalls hardest.
func TestEngineParityAdversarial(t *testing.T) {
	attackerGen := func(seed uint64, spec trace.AttackSpec) trace.Generator {
		g, err := trace.NewAttacker(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	specGen := func(t *testing.T, name string, seed uint64) trace.Generator {
		s, err := trace.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.New(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	runBoth(t, "hammer-solo", func() Options {
		opt := DefaultOptions()
		opt.MemCfg = SmallMemConfig()
		opt.Instructions = 8_000
		opt.Warmup = 800
		opt.Mitigation = "PARA"
		opt.NRH = 64
		opt.Generators = []trace.Generator{
			attackerGen(WorkloadSeed(opt.Seed, 0), trace.AttackSpec{Sides: 2, VictimEvery: 64}),
		}
		return opt
	})

	runBoth(t, "hammer-victims", func() Options {
		opt := DefaultOptions()
		opt.MemCfg = SmallMemConfig()
		opt.Instructions = 6_000
		opt.Warmup = 600
		opt.Mitigation = "Graphene"
		opt.NRH = 128
		opt.Generators = []trace.Generator{
			attackerGen(WorkloadSeed(opt.Seed, 0), trace.AttackSpec{Sides: 4, VictimEvery: 32}),
			specGen(t, "ycsb-a", WorkloadSeed(opt.Seed, 1)),
			specGen(t, "456.hmmer", WorkloadSeed(opt.Seed, 2)),
		}
		return opt
	})

	runBoth(t, "phased", func() Options {
		opt := DefaultOptions()
		opt.MemCfg = SmallMemConfig()
		opt.Instructions = 8_000
		opt.Warmup = 800
		serve, err := trace.SpecByName("ycsb-a")
		if err != nil {
			t.Fatal(err)
		}
		batch, err := trace.SpecByName("470.lbm")
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.NewPhased("diurnal", []trace.Phase{
			{Spec: serve, Accesses: 500},
			{Spec: batch, Accesses: 500},
		}, WorkloadSeed(opt.Seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		opt.Generators = []trace.Generator{g}
		return opt
	})

	runBoth(t, "replay", func() Options {
		src, err := trace.SpecByName("470.lbm")
		if err != nil {
			t.Fatal(err)
		}
		syn, err := trace.New(src, 7)
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Capture(syn, 4000)
		replay, err := trace.NewReplay("lbm-file", recs)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Generators = []trace.Generator{replay}
		opt.MemCfg = SmallMemConfig()
		opt.Instructions = 8_000
		opt.Warmup = 800
		return opt
	})

	// The same records round-tripped through the binary trace format
	// must drive the identical simulation (decode canonicalizes to the
	// very records it encoded).
	runBoth(t, "replay-binary", func() Options {
		src, err := trace.SpecByName("470.lbm")
		if err != nil {
			t.Fatal(err)
		}
		syn, err := trace.New(src, 7)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.EncodeBinary(&buf, trace.Capture(syn, 4000)); err != nil {
			t.Fatal(err)
		}
		recs, err := trace.DecodeBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := trace.NewReplay("lbm-file", recs)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Generators = []trace.Generator{replay}
		opt.MemCfg = SmallMemConfig()
		opt.Instructions = 8_000
		opt.Warmup = 800
		return opt
	})

	// Directed patterns from ISSUE/ROADMAP item 3: row-press long
	// open-row tails and burst/rest windows timed against tracker
	// resets. Both reshape the per-bank arrival process (back-to-back
	// row hits; long idle gaps), which is exactly what the event-horizon
	// engine's leap logic must not misjudge.
	runBoth(t, "rowpress-prac", func() Options {
		opt := DefaultOptions()
		opt.MemCfg = SmallMemConfig()
		opt.Instructions = 6_000
		opt.Warmup = 600
		opt.Mitigation = "PRAC"
		opt.NRH = 64
		opt.Generators = []trace.Generator{
			attackerGen(WorkloadSeed(opt.Seed, 0), trace.AttackSpec{Sides: 2, OpenRowReads: 3, VictimEvery: 64}),
			specGen(t, "456.hmmer", WorkloadSeed(opt.Seed, 1)),
		}
		return opt
	})

	runBoth(t, "burst-reset-hydra", func() Options {
		opt := DefaultOptions()
		opt.MemCfg = SmallMemConfig()
		opt.Instructions = 6_000
		opt.Warmup = 600
		opt.Mitigation = "Hydra"
		opt.NRH = 64
		opt.Generators = []trace.Generator{
			attackerGen(WorkloadSeed(opt.Seed, 0), trace.AttackSpec{Sides: 8, BurstAccesses: 48, RestBubbles: 2000, VictimEvery: 64}),
			specGen(t, "456.hmmer", WorkloadSeed(opt.Seed, 1)),
		}
		return opt
	})
}

// TestEngineParityDeviceProfiles runs both engines under every catalog
// device profile (geometry and timing wholesale, rows scaled down for
// speed): the multi-channel LPDDR5/HBM presets and the slower DDR4
// timing must leap identically to the paper's DDR5 system.
func TestEngineParityDeviceProfiles(t *testing.T) {
	for _, p := range ddr.Profiles() {
		p := p
		runBoth(t, "profile-"+p.Name, func() Options {
			opt := parityOpts(t, "470.lbm", "ycsb-a")()
			opt.MemCfg.Geometry = p.Geometry
			opt.MemCfg.Geometry.Rows = 4096
			opt.MemCfg.Timing = p.Timing
			return opt
		})
	}
}

// TestEngineParityMultiChannel extends the parity proof beyond the
// paper's single channel: both engines must agree byte-for-byte when
// requests fan out over 2 and 4 channels, with per-channel mitigation
// and PaCRAM state, and under an adversarial hammer. The event-horizon
// leap here is bounded by the min over channel horizons, which is the
// new code path this suite pins down.
func TestEngineParityMultiChannel(t *testing.T) {
	channelOpts := func(channels int, workloads ...string) func() Options {
		base := parityOpts(t, workloads...)
		return func() Options {
			opt := base()
			opt.MemCfg.Geometry.Channels = channels
			return opt
		}
	}

	mixNames := func() []string {
		mix := trace.Mixes()[0]
		names := make([]string, len(mix.Specs))
		for i := range mix.Specs {
			names[i] = mix.Specs[i].Name
		}
		return names
	}

	runBoth(t, "2ch-baseline-lbm", channelOpts(2, "470.lbm"))
	runBoth(t, "4ch-mix", func() Options {
		return channelOpts(4, mixNames()...)()
	})
	runBoth(t, "8ch-mix", func() Options {
		opt := channelOpts(8, mixNames()...)()
		opt.Mitigation = "Graphene"
		opt.NRH = 64
		return opt
	})

	for _, mech := range []string{"PARA", "Graphene", "Hydra"} {
		base := channelOpts(2, "429.mcf", "ycsb-a")
		runBoth(t, "2ch-mitigation-"+mech, func() Options {
			opt := base()
			opt.Mitigation = mech
			opt.NRH = 64
			return opt
		})
	}

	mod, err := chips.ByID("H5")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := pacram.Derive(mod, 4, 64, ddr.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	base := channelOpts(2, "429.mcf")
	runBoth(t, "2ch-pacram-rfm", func() Options {
		opt := base()
		opt.Mitigation = "RFM"
		opt.NRH = 64
		opt.PaCRAM = &cfg
		return opt
	})

	runBoth(t, "2ch-hammer-victims", func() Options {
		opt := DefaultOptions()
		opt.MemCfg = SmallMemConfig()
		opt.MemCfg.Geometry.Channels = 2
		opt.Instructions = 6_000
		opt.Warmup = 600
		opt.Mitigation = "Graphene"
		opt.NRH = 128
		// The attacker stride must be this geometry's row stride (512KB
		// at 2 channels), not the single-channel 256KB default, for the
		// hammer to hit one row per stride.
		mapper, err := ddr.NewMOPMapper(opt.MemCfg.Geometry, opt.MemCfg.MOPWidth)
		if err != nil {
			t.Fatal(err)
		}
		hammer, err := trace.NewAttacker(trace.AttackSpec{Sides: 4, VictimEvery: 32,
			StrideBytes: int(mapper.RowStrideBytes())},
			WorkloadSeed(opt.Seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		victim, err := trace.SpecByName("ycsb-a")
		if err != nil {
			t.Fatal(err)
		}
		vg, err := trace.New(victim, WorkloadSeed(opt.Seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		opt.Generators = []trace.Generator{hammer, vg}
		return opt
	})
}

// TestEngineParityParallelWindows pins the parallel channel-window
// fan-out through the full engine stack: an 8-channel memory-bound run
// with windows forced onto per-channel goroutines must be byte-
// identical at GOMAXPROCS=1 and GOMAXPROCS=4, in every window mode,
// and equal to the sequential answer. CI runs this package under
// -race, so the fan-out is also proven data-race-free. The profiled
// leg checks the window counters: every window fans out under forced
// parallel mode, window cycles are attributed, and the Steps +
// LeapCycles == SimCycles invariant survives windowing.
func TestEngineParityParallelWindows(t *testing.T) {
	build := func() Options {
		opt := parityOpts(t, "429.mcf", "470.lbm", "ycsb-a", "429.mcf")()
		opt.MemCfg.Geometry.Channels = 8
		opt.Mitigation = "Graphene"
		opt.NRH = 64
		return opt
	}

	defer func(m memsys.WindowMode) { windowMode = m }(windowMode)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	run := func(mode memsys.WindowMode, procs int, profile bool) Result {
		windowMode = mode
		runtime.GOMAXPROCS(procs)
		opt := build()
		opt.Engine = EngineEventHorizon
		opt.Profile = profile
		res, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(memsys.WindowSequential, 1, false)
	for _, tc := range []struct {
		name  string
		mode  memsys.WindowMode
		procs int
	}{
		{"parallel-1proc", memsys.WindowParallel, 1},
		{"parallel-4proc", memsys.WindowParallel, 4},
		{"auto-1proc", memsys.WindowAuto, 1},
		{"auto-4proc", memsys.WindowAuto, 4},
	} {
		if got := run(tc.mode, tc.procs, false); !reflect.DeepEqual(want, got) {
			t.Errorf("%s diverged from sequential windows at GOMAXPROCS=1:\nwant %+v\ngot  %+v", tc.name, want, got)
		}
	}

	res := run(memsys.WindowParallel, 4, true)
	p := res.Profile
	if p == nil {
		t.Fatal("profiling enabled but Result.Profile is nil")
	}
	if p.Windows == 0 {
		t.Fatal("8-channel memory-bound run executed no channel windows")
	}
	if p.Windows > p.Leaps {
		t.Errorf("Windows %d > Leaps %d: windows must be a subset of leaps", p.Windows, p.Leaps)
	}
	if p.ParallelWindows != p.Windows {
		t.Errorf("forced parallel mode: only %d of %d windows fanned out", p.ParallelWindows, p.Windows)
	}
	if p.WindowCycles == 0 || p.WindowChannelTicks == 0 || p.WindowChannelsAdvanced == 0 {
		t.Errorf("window work unattributed: cycles=%d channelTicks=%d channelsAdvanced=%d",
			p.WindowCycles, p.WindowChannelTicks, p.WindowChannelsAdvanced)
	}
	if p.Steps+p.LeapCycles != p.SimCycles {
		t.Errorf("Steps %d + LeapCycles %d != SimCycles %d", p.Steps, p.LeapCycles, p.SimCycles)
	}
	res.Profile = nil
	if !reflect.DeepEqual(want, res) {
		t.Errorf("profiled parallel run diverged from unprofiled sequential run")
	}
}

// TestEngineParityStallError verifies the engines also agree on the
// failure path: same error, naming the actually-stalled core.
func TestEngineParityStallError(t *testing.T) {
	build := parityOpts(t, "429.mcf", "453.povray")
	var msgs [2]string
	for i, engine := range []string{EnginePerCycle, EngineEventHorizon} {
		opt := build()
		opt.MaxCycles = 2_000 // far below what the budget needs
		opt.Engine = engine
		_, err := Run(opt)
		if err == nil {
			t.Fatalf("%s: expected a stall error", engine)
		}
		msgs[i] = err.Error()
	}
	if msgs[0] != msgs[1] {
		t.Errorf("stall errors diverged:\nper-cycle:     %s\nevent-horizon: %s", msgs[0], msgs[1])
	}
	// The memory-bound core (429.mcf on core 0) is the straggler.
	if want := "core 0 (429.mcf)"; !strings.Contains(msgs[0], want) {
		t.Errorf("stall error %q does not name the stalled core %q", msgs[0], want)
	}

	// A compute-bound core spends most cycles in quiet runs; in this
	// stretch of budgets most overrun cycles fall inside one (a leap
	// that overshoots the clamp by 99 cycles diverges on 21 of the 25).
	// The quiet leap must stop on the overrun cycle, with the core's
	// progress exactly where the per-cycle engine leaves it.
	povray := parityOpts(t, "453.povray")
	for maxCycles := uint64(1_100); maxCycles < 1_200; maxCycles += 4 {
		var msgs [2]string
		for i, engine := range []string{EnginePerCycle, EngineEventHorizon} {
			opt := povray()
			opt.MaxCycles = maxCycles
			opt.Engine = engine
			_, err := Run(opt)
			if err == nil {
				t.Fatalf("%s: MaxCycles %d: expected a stall error", engine, maxCycles)
			}
			msgs[i] = err.Error()
		}
		if msgs[0] != msgs[1] {
			t.Errorf("MaxCycles %d: stall errors diverged:\nper-cycle:     %s\nevent-horizon: %s", maxCycles, msgs[0], msgs[1])
		}
	}
}
