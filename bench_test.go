// Package bench holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper (at reduced scale — use
// cmd/characterize and cmd/simulate for full-scale regeneration), plus
// ablation benches for the load-bearing modeling choices (closed-form
// hammering, lazy row materialization, deterministic stream splitting).
package bench

import (
	"testing"

	"pacram/internal/bender"
	"pacram/internal/characterize"
	"pacram/internal/chips"
	pacram "pacram/internal/core"
	"pacram/internal/ddr"
	"pacram/internal/exp"
	"pacram/internal/memsys"
	"pacram/internal/scenario"
	"pacram/internal/sim"
	"pacram/internal/trace"
)

func charOpts() exp.CharOptions {
	o := exp.DefaultCharOptions()
	o.Rows = 6
	return o
}

func sysOpts() exp.SysOptions {
	o := exp.DefaultSysOptions()
	o.Workloads = []string{"429.mcf"}
	o.MixCount = 1
	o.Instructions = 12_000
	o.Warmup = 1_200
	o.NRHs = []int{64}
	return o
}

func benchTable(b *testing.B, f func() (*exp.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty result table")
		}
	}
}

// ---- One benchmark per paper artifact --------------------------------

func BenchmarkTable1Inventory(b *testing.B) {
	benchTable(b, func() (*exp.Table, error) { return exp.Table1(charOpts()) })
}

// benchFigure runs one paper figure the way simulate -exp does: its
// scenario spec rescaled to o.
func benchFigure(b *testing.B, id string, o exp.SysOptions) {
	b.Helper()
	s, err := scenario.FigureSpec(id, o)
	if err != nil {
		b.Fatal(err)
	}
	benchTable(b, func() (*exp.Table, error) { return scenario.Run(s, scenario.RunOptions{}) })
}

func BenchmarkFig3PreventiveRefreshOverhead(b *testing.B) {
	o := sysOpts()
	o.Mitigations = []string{"PARA", "Graphene"}
	benchFigure(b, "fig3", o)
}

func BenchmarkFig4Motivation(b *testing.B) {
	benchTable(b, func() (*exp.Table, error) { return exp.Fig4(charOpts()) })
}

func BenchmarkFig6NRHvsTRAS(b *testing.B) {
	o := charOpts()
	o.Modules = []string{"H5", "M2", "S6"}
	benchTable(b, func() (*exp.Table, error) { return exp.Fig6(o) })
}

func BenchmarkFig7LowestNRH(b *testing.B) {
	o := charOpts()
	o.Modules = []string{"S6"}
	benchTable(b, func() (*exp.Table, error) { return exp.Fig7(o) })
}

func BenchmarkFig8RowScatter(b *testing.B) {
	benchTable(b, func() (*exp.Table, error) { return exp.Fig8(charOpts()) })
}

func BenchmarkFig9BER(b *testing.B) {
	o := charOpts()
	o.Modules = []string{"S6"}
	benchTable(b, func() (*exp.Table, error) { return exp.Fig9(o) })
}

func BenchmarkFig10Temperature(b *testing.B) {
	o := charOpts()
	o.Modules = []string{"S6"}
	benchTable(b, func() (*exp.Table, error) { return exp.Fig10(o) })
}

func BenchmarkFig11RepeatedRestore(b *testing.B) {
	o := charOpts()
	o.Modules = []string{"S6"}
	benchTable(b, func() (*exp.Table, error) { return exp.Fig11(o) })
}

func BenchmarkFig12ManyRestores(b *testing.B) {
	benchTable(b, func() (*exp.Table, error) { return exp.Fig12(charOpts()) })
}

func BenchmarkFig13HalfDouble(b *testing.B) {
	o := charOpts()
	o.Modules = []string{"H7"}
	benchTable(b, func() (*exp.Table, error) { return exp.Fig13(o) })
}

func BenchmarkFig14Retention(b *testing.B) {
	o := charOpts()
	o.Modules = []string{"S6"}
	benchTable(b, func() (*exp.Table, error) { return exp.Fig14(o) })
}

func BenchmarkFig16LatencySweep(b *testing.B) {
	o := sysOpts()
	o.Mitigations = []string{"RFM"}
	benchFigure(b, "fig16", o)
}

func BenchmarkFig17Performance(b *testing.B) {
	o := sysOpts()
	o.Mitigations = []string{"RFM"}
	benchFigure(b, "fig17", o)
}

func BenchmarkFig18Energy(b *testing.B) {
	o := sysOpts()
	o.Mitigations = []string{"PARA"}
	benchFigure(b, "fig18", o)
}

func BenchmarkFig19PeriodicRefresh(b *testing.B) {
	benchFigure(b, "fig19", sysOpts())
}

func BenchmarkTable3LowestNRH(b *testing.B) {
	o := charOpts()
	o.Modules = []string{"H5", "M2", "S6"}
	benchTable(b, func() (*exp.Table, error) { return exp.Table3(o) })
}

func BenchmarkTable4PaCRAMConfig(b *testing.B) {
	benchTable(b, func() (*exp.Table, error) { return exp.Table4(1024) })
}

func BenchmarkAreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.AreaReport() == nil {
			b.Fatal("nil area report")
		}
	}
}

// ---- Ablations -------------------------------------------------------

// BenchmarkAblationClosedFormHammer measures the closed-form device
// evaluation against per-activation stepping (the design choice that
// makes Algorithm 1 tractable in simulation).
func BenchmarkAblationClosedFormHammer(b *testing.B) {
	m, _ := chips.ByID("S6")
	opt := chips.DefaultDeviceOptions()
	pl, err := bender.New(m.NewChip(opt), opt.Seed)
	if err != nil {
		b.Fatal(err)
	}
	victim := characterize.SelectRows(pl, 1)[0]
	nb, _ := pl.FindNeighbors(victim)
	const hc = 20000

	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog := []bender.Op{
				bender.WriteRow{Row: victim},
				bender.DoubleSidedHammer(nb.Near[0], nb.Near[1], hc, 33),
				bender.ReadRow{Row: victim},
			}
			if _, err := pl.Run(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-activation", func(b *testing.B) {
		body := make([]bender.Op, 0, 2*hc)
		for i := 0; i < hc; i++ {
			body = append(body,
				bender.Act{Row: nb.Near[0], HoldNs: 33},
				bender.Act{Row: nb.Near[1], HoldNs: 33})
		}
		// A Wait op in the body defeats the pure-ACT collapse, forcing
		// element-wise execution.
		body = append(body, bender.Wait{Ns: 0})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prog := append([]bender.Op{bender.WriteRow{Row: victim}}, bender.Loop{Count: 1, Body: body})
			prog = append(prog, bender.ReadRow{Row: victim})
			if _, err := pl.Run(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBlastRadius compares preventive-refresh cost at
// blast radius 1 vs 2 (the Half-Double coverage tax).
func BenchmarkAblationBlastRadius(b *testing.B) {
	spec, _ := trace.SpecByName("429.mcf")
	for _, radius := range []int{1, 2} {
		b.Run(map[int]string{1: "radius1", 2: "radius2"}[radius], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := sim.DefaultOptions(spec)
				opt.MemCfg = sim.SmallMemConfig()
				opt.MemCfg.BlastRadius = radius
				opt.Instructions = 10_000
				opt.Warmup = 1_000
				opt.Mitigation = "PARA"
				opt.NRH = 64
				res, err := sim.Run(opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.PrevRefBusyFraction, "%busy")
			}
		})
	}
}

// BenchmarkAblationFRGranularity compares the FR bit vector against a
// coarser per-row-group variant (trade metadata for full restores).
func BenchmarkAblationFRGranularity(b *testing.B) {
	m, _ := chips.ByID("S6")
	cfg, err := pacram.Derive(m, 4, 64, ddr.DDR5())
	if err != nil {
		b.Fatal(err)
	}
	const banks, rows = 32, 4096
	b.Run("per-row", func(b *testing.B) {
		p := pacram.NewPolicy(cfg, banks, rows)
		full := uint64(0)
		for i := 0; i < b.N; i++ {
			if p.VRRHold(i%banks, (i*7)%rows, float64(i)) == cfg.NominalTRASNs {
				full++
			}
		}
		if b.N > 0 {
			b.ReportMetric(float64(full)/float64(b.N), "fullFrac")
		}
	})
	b.Run("per-group64", func(b *testing.B) {
		// Group granularity: one bit per 64 rows — any refresh in the
		// group flips the whole group to P, so the group must be fully
		// restored whenever any row's budget expires (simulated as a
		// policy over rows/64 entries).
		p := pacram.NewPolicy(cfg, banks, (rows+63)/64)
		full := uint64(0)
		for i := 0; i < b.N; i++ {
			if p.VRRHold(i%banks, ((i*7)%rows)/64, float64(i)) == cfg.NominalTRASNs {
				full++
			}
		}
		if b.N > 0 {
			b.ReportMetric(float64(full)/float64(b.N), "fullFrac")
		}
	})
}

// ---- End-to-end engine benchmarks -----------------------------------

// benchmarkSimRun measures one full sim.Run shape under both engines,
// so BENCH_sim.json records the event-horizon speedup next to the
// per-cycle reference. The simulated cycle count is reported as a
// metric: identical values across the two engines are the bench-side
// echo of the parity suite.
func benchmarkSimRun(b *testing.B, build func() sim.Options) {
	for _, engine := range []string{sim.EngineEventHorizon, sim.EnginePerCycle} {
		b.Run(engine, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				opt := build()
				opt.Engine = engine
				res, err := sim.Run(opt)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
	}
}

// BenchmarkSimRun holds the end-to-end engine benches: an idle-heavy
// periodic-refresh shape, the adversarial hammer-beside-victims shape,
// a reduced Fig. 17 cell and a compute-heavy mix. CI regenerates BENCH_sim.json from these
// and fails on >20% regression against the committed baseline.
func BenchmarkSimRun(b *testing.B) {
	b.Run("fig17-small", func(b *testing.B) {
		mix := trace.Mixes()[0]
		benchmarkSimRun(b, func() sim.Options {
			opt := sim.DefaultOptions(mix.Specs[:]...)
			opt.MemCfg = sim.SmallMemConfig()
			opt.Instructions = 12_000
			opt.Warmup = 1_200
			opt.Mitigation = "RFM"
			opt.NRH = 256
			return opt
		})
	})
	// Three compute-bound cores beside one memory-bound core: most
	// cycles are quiet runs (cores only retiring and dispatching
	// non-memory instructions while the memory system idles), the
	// stretches the event-horizon engine leaps in closed form.
	b.Run("compute-mix", func(b *testing.B) {
		var specs []trace.Spec
		for _, name := range []string{"453.povray", "453.povray", "453.povray", "429.mcf"} {
			spec, err := trace.SpecByName(name)
			if err != nil {
				b.Fatal(err)
			}
			specs = append(specs, spec)
		}
		benchmarkSimRun(b, func() sim.Options {
			opt := sim.DefaultOptions(specs...)
			opt.MemCfg = sim.SmallMemConfig()
			opt.Instructions = 12_000
			opt.Warmup = 1_200
			opt.Mitigation = "RFM"
			opt.NRH = 256
			return opt
		})
	})
	b.Run("refresh-stress", func(b *testing.B) {
		spec, err := trace.SpecByName("429.mcf")
		if err != nil {
			b.Fatal(err)
		}
		benchmarkSimRun(b, func() sim.Options {
			opt := sim.DefaultOptions(spec)
			opt.MemCfg = sim.SmallMemConfig()
			// tRFC at the catalog's future-density ceiling: long refresh
			// stalls dominate, the worst case for per-cycle polling.
			opt.MemCfg.Timing = opt.MemCfg.Timing.ScaleTRFC(4.42)
			opt.Instructions = 20_000
			opt.Warmup = 2_000
			return opt
		})
	})
	// The same mix and mitigation as fig17-small on a 2-channel system:
	// the simCycles metric drops versus the single-channel case (the
	// second channel's bandwidth retires the budget sooner), which is
	// the scaling check — multi-channel must make the simulated system
	// faster, not the simulator slower.
	b.Run("dual-channel-mix", func(b *testing.B) {
		mix := trace.Mixes()[0]
		benchmarkSimRun(b, func() sim.Options {
			opt := sim.DefaultOptions(mix.Specs[:]...)
			opt.MemCfg = sim.SmallMemConfig()
			opt.MemCfg.Geometry.Channels = 2
			opt.Instructions = 12_000
			opt.Warmup = 1_200
			opt.Mitigation = "RFM"
			opt.NRH = 256
			return opt
		})
	})
	// Future-chip-style wide systems: the hammer-victim mix fanned over
	// 4 and 8 channels at the future-chip threshold (Graphene NRH 8,
	// the catalog floor) — the shapes the channel-window advancement
	// targets. The attacker strides at the channel-interleave row
	// stride so every channel sees the hammer, and the tracker's
	// preventive refreshes stall all cores for hundreds of cycles at a
	// time; under lockstep leaping every channel then ticks at the
	// union of all channels' event times, while with windows each
	// ticks only at its own, so event-horizon ns/op must drop sharply
	// versus per-cycle as channels grow — these two shapes gate that
	// win (the issue's acceptance bar is >=3x on the 8-channel shape).
	for _, chans := range []int{4, 8} {
		name := map[int]string{4: "quad-channel-mix", 8: "octa-channel-mix"}[chans]
		b.Run(name, func(b *testing.B) {
			victims := []string{"ycsb-a", "429.mcf", "470.lbm"}
			benchmarkSimRun(b, func() sim.Options {
				opt := sim.DefaultOptions()
				opt.MemCfg = sim.SmallMemConfig()
				opt.MemCfg.Geometry.Channels = chans
				opt.Instructions = 12_000
				opt.Warmup = 1_200
				opt.Mitigation = "Graphene"
				opt.NRH = 8
				mapper, err := ddr.NewMOPMapper(opt.MemCfg.Geometry, opt.MemCfg.MOPWidth)
				if err != nil {
					b.Fatal(err)
				}
				// FootprintMB must hold (2*Sides+1) rows at the widened
				// row stride; 64MB is enough only below 4 channels.
				hammer, err := trace.NewAttacker(trace.AttackSpec{
					Sides:       16,
					VictimEvery: 2,
					StrideBytes: int(mapper.RowStrideBytes()),
					FootprintMB: 128,
				}, sim.WorkloadSeed(opt.Seed, 0))
				if err != nil {
					b.Fatal(err)
				}
				opt.Generators = []trace.Generator{hammer}
				for i, name := range victims {
					spec, err := trace.SpecByName(name)
					if err != nil {
						b.Fatal(err)
					}
					gen, err := trace.New(spec, sim.WorkloadSeed(opt.Seed, i+1))
					if err != nil {
						b.Fatal(err)
					}
					opt.Generators = append(opt.Generators, gen)
				}
				return opt
			})
		})
	}
	b.Run("hammer-victim", func(b *testing.B) {
		victims := []string{"ycsb-a", "483.xalancbmk", "456.hmmer"}
		benchmarkSimRun(b, func() sim.Options {
			opt := sim.DefaultOptions()
			opt.MemCfg = sim.SmallMemConfig()
			opt.Instructions = 8_000
			opt.Warmup = 800
			// A many-sided (TRRespass-class) hammer at the future-chip
			// threshold the catalog sweeps to: the tracker's preventive
			// refreshes stall the hammered bank for hundreds of cycles
			// at a time, which is what makes the shape idle-heavy.
			opt.Mitigation = "Graphene"
			opt.NRH = 8
			hammer, err := trace.NewAttacker(trace.AttackSpec{Sides: 16, VictimEvery: 2},
				sim.WorkloadSeed(opt.Seed, 0))
			if err != nil {
				b.Fatal(err)
			}
			opt.Generators = []trace.Generator{hammer}
			for i, name := range victims {
				spec, err := trace.SpecByName(name)
				if err != nil {
					b.Fatal(err)
				}
				gen, err := trace.New(spec, sim.WorkloadSeed(opt.Seed, i+1))
				if err != nil {
					b.Fatal(err)
				}
				opt.Generators = append(opt.Generators, gen)
			}
			return opt
		})
	})
}

// BenchmarkControllerThroughput measures the per-cycle cost of the
// memory system on the path production runs: a single-channel
// memsys.System fed through System.Issue (the cores' MemoryPort, which
// decodes and enqueues via Controller.IssueDecoded) and ticked every
// cycle, so each op pays the controller's full FR-FCFS priority chain.
func BenchmarkControllerThroughput(b *testing.B) {
	sys, err := memsys.NewSystem(sim.SmallMemConfig(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	spec, _ := trace.SpecByName("470.lbm")
	gen, _ := trace.New(spec, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%3 == 0 {
			r := gen.Next()
			sys.Issue(r.Addr, r.Write, nil)
		}
		sys.Tick()
	}
}
