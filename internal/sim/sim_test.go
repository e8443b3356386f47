package sim

import (
	"reflect"
	"testing"

	"pacram/internal/chips"
	pacram "pacram/internal/core"
	"pacram/internal/ddr"
	"pacram/internal/memsys"
	"pacram/internal/mitigation"
	"pacram/internal/trace"
)

func quickOpts(t testing.TB, workload string) Options {
	t.Helper()
	spec, err := trace.SpecByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(spec)
	opt.MemCfg = SmallMemConfig()
	opt.Instructions = 30_000
	opt.Warmup = 3_000
	return opt
}

func TestBaselineRunSane(t *testing.T) {
	res, err := Run(quickOpts(t, "470.lbm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 1 || res.IPC[0] <= 0 || res.IPC[0] > 4 {
		t.Fatalf("IPC %v out of range", res.IPC)
	}
	if res.Stats.Reads == 0 || res.Stats.Acts == 0 {
		t.Fatalf("no memory activity: %+v", res.Stats)
	}
	if res.Stats.Refs == 0 {
		t.Fatal("no periodic refreshes over the run")
	}
	if res.PrevRefBusyFraction != 0 {
		t.Fatal("baseline has no mitigation; preventive busy must be 0")
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("energy not computed")
	}
}

func TestComputeVsMemoryBoundIPC(t *testing.T) {
	light, err := Run(quickOpts(t, "453.povray"))
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(quickOpts(t, "429.mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if light.IPC[0] <= heavy.IPC[0] {
		t.Fatalf("compute-bound IPC %.2f not above memory-bound %.2f",
			light.IPC[0], heavy.IPC[0])
	}
	if light.IPC[0] < 1.8 {
		t.Fatalf("povray-class IPC %.2f too low", light.IPC[0])
	}
	if heavy.IPC[0] > 2.0 {
		t.Fatalf("mcf-class IPC %.2f too high", heavy.IPC[0])
	}
	if light.IPC[0] < 2*heavy.IPC[0] {
		t.Fatalf("intensity classes not separated: %.2f vs %.2f", light.IPC[0], heavy.IPC[0])
	}
}

func TestMitigationCostOrdering(t *testing.T) {
	// Fig. 3's shape at a low threshold: the low-area mechanisms
	// (PARA, RFM) spend more bank time on preventive refreshes than
	// the precise trackers (Graphene), and everything costs more than
	// no mitigation.
	busy := map[string]float64{}
	ipc := map[string]float64{}
	for _, name := range []string{"None", mitigation.NamePARA, mitigation.NameRFM, mitigation.NameGraphene} {
		opt := quickOpts(t, "429.mcf")
		opt.Mitigation = name
		opt.NRH = 64
		res, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		busy[name] = res.PrevRefBusyFraction
		ipc[name] = res.IPC[0]
	}
	if busy[mitigation.NamePARA] <= busy[mitigation.NameGraphene] {
		t.Errorf("PARA busy %.4f should exceed Graphene %.4f",
			busy[mitigation.NamePARA], busy[mitigation.NameGraphene])
	}
	if busy[mitigation.NameRFM] <= busy[mitigation.NameGraphene] {
		t.Errorf("RFM busy %.4f should exceed Graphene %.4f",
			busy[mitigation.NameRFM], busy[mitigation.NameGraphene])
	}
	if ipc["None"] <= ipc[mitigation.NameRFM] {
		t.Errorf("RFM at NRH=64 should cost performance: %.3f vs baseline %.3f",
			ipc[mitigation.NameRFM], ipc["None"])
	}
}

func TestOverheadGrowsAsNRHShrinks(t *testing.T) {
	get := func(nrh int) float64 {
		opt := quickOpts(t, "429.mcf")
		opt.Mitigation = mitigation.NamePARA
		opt.NRH = nrh
		res, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.PrevRefBusyFraction
	}
	if hi, lo := get(1024), get(64); lo <= hi {
		t.Fatalf("preventive busy must grow as NRH shrinks: %.5f at 1K vs %.5f at 64", hi, lo)
	}
}

func TestPaCRAMImprovesPerformance(t *testing.T) {
	// PaCRAM-H (module H5, best factor) + RFM at a low threshold:
	// higher IPC and lower preventive busy time than RFM alone.
	mod, err := chips.ByID("H5")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := pacram.Derive(mod, 4 /* 0.36 */, 64, ddr.DDR5())
	if err != nil {
		t.Fatal(err)
	}

	base := quickOpts(t, "429.mcf")
	base.Mitigation = mitigation.NameRFM
	base.NRH = 64
	noPac, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	withCfg := base
	withCfg.PaCRAM = &cfg
	withPac, err := Run(withCfg)
	if err != nil {
		t.Fatal(err)
	}

	if withPac.IPC[0] <= noPac.IPC[0] {
		t.Errorf("PaCRAM-H did not improve IPC: %.3f vs %.3f", withPac.IPC[0], noPac.IPC[0])
	}
	if withPac.PrevRefBusyFraction >= noPac.PrevRefBusyFraction {
		t.Errorf("PaCRAM-H did not reduce preventive busy: %.4f vs %.4f",
			withPac.PrevRefBusyFraction, noPac.PrevRefBusyFraction)
	}
	if withPac.PartialFraction == 0 {
		t.Error("no partial refreshes recorded under PaCRAM")
	}
	if withPac.Energy.PrevRefresh >= noPac.Energy.PrevRefresh {
		t.Errorf("PaCRAM-H did not save preventive-refresh energy: %g vs %g",
			withPac.Energy.PrevRefresh, noPac.Energy.PrevRefresh)
	}
}

// TestPartialFractionCoversMeasurement: like every Result stat, the
// share of partial restorations covers the measurement interval only.
// S6 at 0.36 tRAS keeps the FR vector, so warmup's first (full)
// refreshes would pull a whole-run count down.
func TestPartialFractionCoversMeasurement(t *testing.T) {
	mod, err := chips.ByID("S6")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := pacram.Derive(mod, 4 /* 0.36 */, 64, ddr.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AlwaysPartial() {
		t.Fatal("S6@0.36 should keep the FR vector")
	}
	opt := quickOpts(t, "429.mcf")
	opt.Mitigation = mitigation.NameRFM
	opt.NRH = 64
	opt.PaCRAM = &cfg
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.VRRPartial == 0 || st.VRRFull == 0 {
		t.Fatalf("want both kinds of restoration, got %d partial and %d full", st.VRRPartial, st.VRRFull)
	}
	if want := float64(st.VRRPartial) / float64(st.VRRFull+st.VRRPartial); res.PartialFraction != want {
		t.Errorf("PartialFraction %g, the measured VRRs give %g", res.PartialFraction, want)
	}
}

func TestPaCRAMScalesNRH(t *testing.T) {
	mod, _ := chips.ByID("S6")
	cfg, err := pacram.Derive(mod, 3 /* 0.45 */, 128, ddr.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOpts(t, "470.lbm")
	opt.Mitigation = mitigation.NamePARA
	opt.NRH = 128
	opt.PaCRAM = &cfg
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaledNRH >= 128 {
		t.Fatalf("S module at 0.45 must scale NRH below 128, got %d", res.ScaledNRH)
	}
	if res.ScaledNRH < 64 {
		t.Fatalf("scaled NRH %d implausibly low for S6@0.45", res.ScaledNRH)
	}
}

func TestPRACBaselineTimingTax(t *testing.T) {
	// PRAC slows a memory-bound workload even when no back-off ever
	// fires (the precharge-time tax of the in-DRAM counters).
	base := quickOpts(t, "429.mcf")
	none, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	prac := base
	prac.Mitigation = mitigation.NamePRAC
	prac.NRH = 100000 // threshold never reached: isolates the tax
	withPrac, err := Run(prac)
	if err != nil {
		t.Fatal(err)
	}
	if withPrac.Stats.RFMs != 0 {
		t.Fatalf("back-offs fired (%d) at a huge threshold", withPrac.Stats.RFMs)
	}
	if withPrac.IPC[0] >= none.IPC[0] {
		t.Fatalf("PRAC timing tax missing: IPC %.4f vs baseline %.4f",
			withPrac.IPC[0], none.IPC[0])
	}
}

func TestMulticoreRun(t *testing.T) {
	mix := trace.Mixes()[0]
	opt := DefaultOptions(mix.Specs[:]...)
	opt.MemCfg = SmallMemConfig()
	opt.Instructions = 15_000
	opt.Warmup = 1_500
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 4 {
		t.Fatalf("expected 4 per-core IPCs, got %d", len(res.IPC))
	}
	for i, v := range res.IPC {
		if v <= 0 || v > 4 {
			t.Fatalf("core %d IPC %.2f out of range", i, v)
		}
	}
}

func TestPeriodicExtensionReducesRefreshBusy(t *testing.T) {
	mod, _ := chips.ByID("H5")
	cfg, err := pacram.Derive(mod, 4, 1024, ddr.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	base := quickOpts(t, "429.mcf")
	base.Mitigation = mitigation.NamePARA
	base.NRH = 1024
	base.PaCRAM = &cfg
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ext := base
	ext.PeriodicExtension = true
	extended, err := Run(ext)
	if err != nil {
		t.Fatal(err)
	}
	if extended.Stats.RefBusy >= plain.Stats.RefBusy {
		t.Fatalf("Appendix B extension did not shrink refresh busy time: %d vs %d",
			extended.Stats.RefBusy, plain.Stats.RefBusy)
	}
}

// TestPeriodicFactor: a factor of 1 is exactly nominal refresh, a
// reduced factor shrinks refresh busy time on every channel count,
// and the factor is rejected out of range or alongside PaCRAM.
func TestPeriodicFactor(t *testing.T) {
	for _, channels := range []int{1, 2} {
		base := quickOpts(t, "429.mcf")
		base.MemCfg.Geometry.Channels = channels
		nominal, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		one := base
		one.PeriodicFactor = 1
		same, err := Run(one)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(same, nominal) {
			t.Errorf("%d channels: PeriodicFactor 1 differs from nominal refresh", channels)
		}
		cut := base
		cut.PeriodicFactor = 0.36
		reduced, err := Run(cut)
		if err != nil {
			t.Fatal(err)
		}
		if reduced.Stats.RefBusy >= nominal.Stats.RefBusy {
			t.Errorf("%d channels: PeriodicFactor 0.36 did not shrink refresh busy time: %d vs %d",
				channels, reduced.Stats.RefBusy, nominal.Stats.RefBusy)
		}
	}

	mod, _ := chips.ByID("H5")
	cfg, err := pacram.Derive(mod, 4, 1024, ddr.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Options{
		func() Options { o := quickOpts(t, "429.mcf"); o.PeriodicFactor = 1.5; return o }(),
		func() Options { o := quickOpts(t, "429.mcf"); o.PeriodicFactor = -0.5; return o }(),
		func() Options { o := quickOpts(t, "429.mcf"); o.PeriodicFactor = 0.5; o.PaCRAM = &cfg; return o }(),
	} {
		if _, err := Run(bad); err == nil {
			t.Errorf("PeriodicFactor %g (PaCRAM %v) accepted", bad.PeriodicFactor, bad.PaCRAM != nil)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	opt := quickOpts(t, "429.mcf")
	opt.Instructions = 0
	if _, err := Run(opt); err == nil {
		t.Fatal("zero instructions accepted")
	}
	opt = quickOpts(t, "429.mcf")
	opt.Mitigation = "bogus"
	if _, err := Run(opt); err == nil {
		t.Fatal("unknown mitigation accepted")
	}
}

// hammerGen drives a double-sided hammer at full speed: alternating
// loads to the two aggressor rows with distinct columns (forcing row
// activations via row conflicts in one bank).
type hammerGen struct {
	addrs [2]uint64
	cols  int
	geo   ddr.Geometry
	mapr  *ddr.Mapper
	i     int
}

func newHammerGen(geo ddr.Geometry, mopWidth, victim int) *hammerGen {
	m, err := ddr.NewMOPMapper(geo, mopWidth)
	if err != nil {
		panic(err)
	}
	g := &hammerGen{geo: geo, mapr: m, cols: geo.Columns}
	g.addrs[0] = m.Encode(ddr.Address{Row: victim - 1})
	g.addrs[1] = m.Encode(ddr.Address{Row: victim + 1})
	return g
}

func (g *hammerGen) Name() string { return "hammer" }
func (g *hammerGen) Next() trace.Record {
	g.i++
	side := g.i % 2
	a := g.mapr.Decode(g.addrs[side])
	a.Column = (g.i / 2) % g.cols
	return trace.Record{Addr: g.mapr.Encode(a)}
}

func TestSecurityInvariantUnderAttack(t *testing.T) {
	// Deterministic mechanisms (Graphene, PRAC) with and without
	// PaCRAM must never let a victim row accumulate NRH effective
	// hammers between charge restorations, even under a double-sided
	// attack. Audited via the controller's activation feed.
	const nrh = 128
	memCfg := SmallMemConfig()
	victim := 1000

	for _, tc := range []struct {
		name   string
		pacCfg bool
	}{
		{mitigation.NameGraphene, false},
		{mitigation.NameGraphene, true},
		{mitigation.NamePRAC, false},
	} {
		var policy memsys.RefreshPolicy
		nrhCfg := nrh
		if tc.pacCfg {
			mod, _ := chips.ByID("S6")
			cfg, err := pacram.Derive(mod, 3, nrh, ddr.DDR5())
			if err != nil {
				t.Fatal(err)
			}
			nrhCfg = cfg.ScaledNRH(nrh)
			policy = pacram.NewPolicy(cfg, memCfg.Geometry.TotalBanks(), memCfg.Geometry.Rows)
		}
		mit, err := mitigation.New(tc.name, mitigation.Config{
			NRH:         nrhCfg,
			Rows:        memCfg.Geometry.Rows,
			Banks:       memCfg.Geometry.TotalBanks(),
			BlastRadius: memCfg.BlastRadius,
			WindowActs:  int(memCfg.Timing.TREFW / memCfg.Timing.TRC()),
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := memsys.NewController(memCfg, mit, policy)
		if err != nil {
			t.Fatal(err)
		}

		// Audit: count activations of each row's neighbours since the
		// row was last restored.
		disturb := map[[2]int]int{}
		maxSeen := 0
		ctrl.SetAudit(func(bank, row int, preventive bool) {
			if preventive {
				disturb[[2]int{bank, row}] = 0
				return
			}
			for d := -2; d <= 2; d++ {
				if d == 0 {
					continue
				}
				k := [2]int{bank, row + d}
				disturb[k]++
				if disturb[k] > maxSeen {
					maxSeen = disturb[k]
				}
			}
		})

		gen := newHammerGen(memCfg.Geometry, memCfg.MOPWidth, victim)
		core := newAttackDriver(gen, ctrl)
		for i := 0; i < 2_000_000 && core.issued < 40_000; i++ {
			core.tick()
			ctrl.Tick()
		}
		if core.issued < 10_000 {
			t.Fatalf("%s: attack driver only issued %d requests", tc.name, core.issued)
		}
		// Deterministic trackers: a victim must be refreshed before
		// accumulating the configured threshold (with a small
		// service-latency slack for in-flight activations).
		slack := nrhCfg / 4
		if maxSeen > nrhCfg+slack {
			t.Errorf("%s (pacram=%v): victim saw %d hammers, configured NRH %d",
				tc.name, tc.pacCfg, maxSeen, nrhCfg)
		}
	}
}

// attackDriver issues the hammer trace as fast as the queues accept.
type attackDriver struct {
	gen    trace.Generator
	ctrl   *memsys.Controller
	issued int
	next   *trace.Record
}

func newAttackDriver(gen trace.Generator, ctrl *memsys.Controller) *attackDriver {
	return &attackDriver{gen: gen, ctrl: ctrl}
}

func (a *attackDriver) tick() {
	for i := 0; i < 4; i++ {
		if a.next == nil {
			r := a.gen.Next()
			a.next = &r
		}
		if !a.ctrl.Issue(a.next.Addr, false, func() {}) {
			return
		}
		a.issued++
		a.next = nil
	}
}

// TestMultiChannelEndToEnd: a 2-channel run completes, reports
// per-channel statistics whose counters sum to the system totals, and
// spreads traffic over both channels. The single-channel Result keeps
// ChannelStats nil (its JSON shape — and thus the runner cache — is
// unchanged from the single-channel engine).
func TestMultiChannelEndToEnd(t *testing.T) {
	mix := trace.Mixes()[0]
	run := func(channels int) Result {
		opt := DefaultOptions(mix.Specs[:]...)
		opt.MemCfg = SmallMemConfig()
		opt.MemCfg.Geometry.Channels = channels
		opt.Instructions = 8_000
		opt.Warmup = 800
		opt.Mitigation = "Graphene"
		opt.NRH = 128
		res, err := Run(opt)
		if err != nil {
			t.Fatalf("channels=%d: %v", channels, err)
		}
		return res
	}

	single := run(1)
	if single.ChannelStats != nil {
		t.Fatalf("single-channel result must not carry ChannelStats, got %d entries", len(single.ChannelStats))
	}

	dual := run(2)
	if len(dual.ChannelStats) != 2 {
		t.Fatalf("dual-channel result has %d channel snapshots, want 2", len(dual.ChannelStats))
	}
	var sum memsys.Stats
	for ch, st := range dual.ChannelStats {
		if st.Reads == 0 || st.Acts == 0 {
			t.Fatalf("channel %d saw no traffic: %+v", ch, st)
		}
		if st.Cycles != dual.Cycles {
			t.Fatalf("channel %d cycles %d != interval %d", ch, st.Cycles, dual.Cycles)
		}
		sum.Acts += st.Acts
		sum.Pres += st.Pres
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.Refs += st.Refs
		sum.VRRs += st.VRRs
		sum.DemandBusy += st.DemandBusy
		sum.RefBusy += st.RefBusy
		sum.PrevRefBusy += st.PrevRefBusy
		sum.ReadLatencySum += st.ReadLatencySum
		sum.ReadCount += st.ReadCount
	}
	got := dual.Stats
	if sum.Acts != got.Acts || sum.Pres != got.Pres || sum.Reads != got.Reads ||
		sum.Writes != got.Writes || sum.Refs != got.Refs || sum.VRRs != got.VRRs ||
		sum.DemandBusy != got.DemandBusy || sum.RefBusy != got.RefBusy ||
		sum.PrevRefBusy != got.PrevRefBusy || sum.ReadLatencySum != got.ReadLatencySum ||
		sum.ReadCount != got.ReadCount {
		t.Fatalf("per-channel stats do not sum to system totals:\nsum:    %+v\nsystem: %+v", sum, got)
	}

	// Doubling memory bandwidth must not hurt a four-core workload.
	if dual.SumIPC() < single.SumIPC()*0.99 {
		t.Fatalf("2 channels slower than 1: SumIPC %.4f vs %.4f", dual.SumIPC(), single.SumIPC())
	}
}

func BenchmarkSimBaseline(b *testing.B) {
	spec, _ := trace.SpecByName("429.mcf")
	for i := 0; i < b.N; i++ {
		opt := DefaultOptions(spec)
		opt.MemCfg = SmallMemConfig()
		opt.Instructions = 10_000
		opt.Warmup = 1_000
		if _, err := Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReplayGeneratorsRun(t *testing.T) {
	// A file-style replay trace drives the simulator exactly like a
	// synthetic workload.
	spec, _ := trace.SpecByName("470.lbm")
	syn, err := trace.New(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Capture(syn, 5000)
	replay, err := trace.NewReplay("lbm-file", recs)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Generators = []trace.Generator{replay}
	opt.MemCfg = SmallMemConfig()
	opt.Instructions = 20_000
	opt.Warmup = 2_000
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC[0] <= 0 || res.Stats.Reads == 0 {
		t.Fatalf("replay run produced no activity: %+v", res.Stats)
	}
}
