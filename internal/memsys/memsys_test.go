package memsys

import (
	"testing"

	"pacram/internal/ddr"
)

func testConfig() Config {
	cfg := DefaultConfig()
	g := ddr.PaperSystem()
	g.Rows = 1024
	cfg.Geometry = g
	return cfg
}

func newCtrl(t testing.TB, cfg Config, m Mitigation, p RefreshPolicy) *Controller {
	t.Helper()
	c, err := NewController(cfg, m, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drain runs the controller until all issued reads complete or the
// cycle budget is exhausted.
func drain(t testing.TB, c *Controller, pending *int, budget int) {
	t.Helper()
	for i := 0; i < budget && *pending > 0; i++ {
		c.Tick()
	}
	if *pending > 0 {
		t.Fatalf("%d reads never completed within %d cycles", *pending, budget)
	}
}

func TestNewControllerValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"zero CPU frequency":    func(c *Config) { c.CPUFreqGHz = 0 },
		"zero read queue":       func(c *Config) { c.ReadQueue = 0 },
		"negative write queue":  func(c *Config) { c.WriteQueue = -5 },
		"drain low above high":  func(c *Config) { c.DrainLo, c.DrainHi = 0.9, 0.8 },
		"drain high above one":  func(c *Config) { c.DrainHi = 1.5 },
		"negative drain low":    func(c *Config) { c.DrainLo = -0.1 },
		"negative blast radius": func(c *Config) { c.BlastRadius = -3 },
		"multi-channel":         func(c *Config) { c.Geometry.Channels = 2 },
	} {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := NewController(cfg, nil, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSingleReadCompletes(t *testing.T) {
	c := newCtrl(t, testConfig(), nil, nil)
	pending := 1
	if !c.Issue(0x1000, false, func() { pending-- }) {
		t.Fatal("issue rejected")
	}
	drain(t, c, &pending, 2000)
	st := c.Stats()
	if st.Acts != 1 || st.Reads != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// One cycle to the ACT, then tRCD, the read's tCL and burst, and
	// the fixed on-chip latency.
	if want := 1 + c.cRCD + c.cCL + c.cBL + c.cfg.ExtraLatency; st.ReadLatencySum != want {
		t.Fatalf("lone read latency %d cycles, want %d", st.ReadLatencySum, want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := testConfig()
	mapper, _ := ddr.NewMOPMapper(cfg.Geometry, cfg.MOPWidth)

	run := func(a2 ddr.Address) uint64 {
		c := newCtrl(t, cfg, nil, nil)
		pending := 2
		c.Issue(mapper.Encode(ddr.Address{Row: 5}), false, func() { pending-- })
		c.Issue(mapper.Encode(a2), false, func() { pending-- })
		drain(t, c, &pending, 5000)
		return c.Cycle()
	}
	hit := run(ddr.Address{Row: 5, Column: 7}) // same row
	conflict := run(ddr.Address{Row: 9})       // same bank, other row
	if hit >= conflict {
		t.Fatalf("row hit (%d cycles) not faster than conflict (%d)", hit, conflict)
	}
}

func TestBankParallelismHelps(t *testing.T) {
	cfg := testConfig()
	mapper, _ := ddr.NewMOPMapper(cfg.Geometry, cfg.MOPWidth)
	run := func(sameBank bool) uint64 {
		c := newCtrl(t, cfg, nil, nil)
		pending := 8
		for i := 0; i < 8; i++ {
			a := ddr.Address{Row: i * 7}
			if !sameBank {
				a.BankGroup = i % cfg.Geometry.BankGroups
			}
			c.Issue(mapper.Encode(a), false, func() { pending-- })
		}
		drain(t, c, &pending, 50000)
		return c.Cycle()
	}
	spread := run(false)
	serial := run(true)
	if spread >= serial {
		t.Fatalf("bank-parallel run (%d) not faster than single-bank (%d)", spread, serial)
	}
}

func TestWriteForwarding(t *testing.T) {
	c := newCtrl(t, testConfig(), nil, nil)
	if !c.Issue(0x4000, true, nil) {
		t.Fatal("write rejected")
	}
	done := false
	c.Issue(0x4000, false, func() { done = true })
	for i := 0; i < 10 && !done; i++ {
		c.Tick()
	}
	if !done {
		t.Fatal("read of queued write line not forwarded")
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.ReadQueue = 4
	c := newCtrl(t, cfg, nil, nil)
	accepted := 0
	for i := 0; i < 10; i++ {
		if c.Issue(uint64(i)*1<<20, false, func() {}) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d reads into a 4-entry queue", accepted)
	}
}

func TestPeriodicRefreshHappens(t *testing.T) {
	cfg := testConfig()
	c := newCtrl(t, cfg, nil, nil)
	// Run for ~3 tREFI with no traffic: each rank should refresh ~3x.
	cycles := uint64(3 * cfg.Timing.TREFI * cfg.CPUFreqGHz)
	for i := uint64(0); i < cycles; i++ {
		c.Tick()
	}
	st := c.Stats()
	want := uint64(3 * cfg.Geometry.Ranks)
	if st.Refs < want-2 || st.Refs > want+2 {
		t.Fatalf("refs = %d over 3 tREFI on %d ranks", st.Refs, cfg.Geometry.Ranks)
	}
	if st.RefBusy == 0 {
		t.Fatal("refresh busy cycles not accounted")
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.RefreshEnabled = false
	c := newCtrl(t, cfg, nil, nil)
	for i := 0; i < 100000; i++ {
		c.Tick()
	}
	if c.Stats().Refs != 0 {
		t.Fatal("refresh issued while disabled")
	}
}

// triggerEvery is a test mitigation issuing a VRR for every Nth ACT.
type triggerEvery struct {
	n, count int
	rfm      bool
}

func (m *triggerEvery) Name() string { return "test" }
func (m *triggerEvery) OnActivate(bank, row int) Action {
	m.count++
	if m.count%m.n != 0 {
		return Action{}
	}
	if m.rfm {
		return Action{RFM: true}
	}
	return Action{RefreshRows: []int{row - 1, row + 1}}
}
func (m *triggerEvery) OnRefreshWindow() {}

func TestVRRExecutesAndAccounts(t *testing.T) {
	cfg := testConfig()
	mit := &triggerEvery{n: 1}
	c := newCtrl(t, cfg, mit, nil)
	mapper := c.Mapper()
	pending := 0
	for i := 0; i < 16; i++ {
		pending++
		c.Issue(mapper.Encode(ddr.Address{Row: i * 3}), false, func() { pending-- })
	}
	drain(t, c, &pending, 100000)
	// Let queued VRRs finish.
	for i := 0; i < 10000; i++ {
		c.Tick()
	}
	st := c.Stats()
	if st.VRRs == 0 {
		t.Fatal("no preventive refreshes executed")
	}
	if st.PrevRefBusy == 0 {
		t.Fatal("preventive-refresh busy cycles not accounted")
	}
	if st.VRRFull != st.VRRs {
		t.Fatalf("nominal policy: all %d VRRs should be full, got %d", st.VRRs, st.VRRFull)
	}
	if f := st.PrevRefBusyFraction(cfg.Geometry.TotalBanks()); f <= 0 || f >= 1 {
		t.Fatalf("busy fraction %g out of range", f)
	}
}

func TestRFMExecutes(t *testing.T) {
	cfg := testConfig()
	mit := &triggerEvery{n: 2, rfm: true}
	c := newCtrl(t, cfg, mit, nil)
	mapper := c.Mapper()
	pending := 0
	for i := 0; i < 16; i++ {
		pending++
		c.Issue(mapper.Encode(ddr.Address{Row: i * 3}), false, func() { pending-- })
	}
	drain(t, c, &pending, 100000)
	for i := 0; i < 10000; i++ {
		c.Tick()
	}
	st := c.Stats()
	if st.RFMs == 0 {
		t.Fatal("no RFM executed")
	}
	if st.VRRs == 0 {
		t.Fatal("RFM service should count internal victim refreshes")
	}
}

// reducedPolicy is a test policy always returning half tRAS.
type reducedPolicy struct{ tras float64 }

func (p reducedPolicy) VRRHold(int, int, float64) float64 { return p.tras / 2 }
func (p reducedPolicy) PeriodicScale(float64) float64     { return 1.0 }

func TestReducedPolicyShrinksBusyTime(t *testing.T) {
	cfg := testConfig()
	run := func(p RefreshPolicy) Stats {
		mit := &triggerEvery{n: 1}
		c := newCtrl(t, cfg, mit, p)
		mapper := c.Mapper()
		pending := 0
		for i := 0; i < 32; i++ {
			pending++
			c.Issue(mapper.Encode(ddr.Address{Row: i * 5}), false, func() { pending-- })
		}
		drain(t, c, &pending, 200000)
		for i := 0; i < 20000; i++ {
			c.Tick()
		}
		return c.Stats()
	}
	nom := run(nil)
	red := run(reducedPolicy{tras: cfg.Timing.TRAS})
	if red.VRRPartial == 0 {
		t.Fatal("reduced policy produced no partial refreshes")
	}
	if nom.VRRs != red.VRRs {
		t.Fatalf("VRR counts differ: %d vs %d", nom.VRRs, red.VRRs)
	}
	if red.PrevRefBusy >= nom.PrevRefBusy {
		t.Fatalf("reduced latency did not shrink busy time: %d vs %d", red.PrevRefBusy, nom.PrevRefBusy)
	}
	if red.VRRRestoreNs >= nom.VRRRestoreNs {
		t.Fatal("restore-time integral did not shrink")
	}
}

func TestAuditSeesActivations(t *testing.T) {
	cfg := testConfig()
	mit := &triggerEvery{n: 1}
	c := newCtrl(t, cfg, mit, nil)
	demand, preventive := 0, 0
	c.SetAudit(func(bank, row int, prev bool) {
		if prev {
			preventive++
		} else {
			demand++
		}
	})
	mapper := c.Mapper()
	pending := 1
	c.Issue(mapper.Encode(ddr.Address{Row: 42}), false, func() { pending-- })
	drain(t, c, &pending, 10000)
	for i := 0; i < 20000; i++ {
		c.Tick()
	}
	if demand != 1 {
		t.Fatalf("audit saw %d demand activations, want 1", demand)
	}
	if preventive != 2 {
		t.Fatalf("audit saw %d preventive refreshes, want 2 (±1 of row 42)", preventive)
	}
}

func TestMetaTrafficQueued(t *testing.T) {
	cfg := testConfig()
	mit := &metaMit{}
	c := newCtrl(t, cfg, mit, nil)
	pending := 1
	c.Issue(c.Mapper().Encode(ddr.Address{Row: 3}), false, func() { pending-- })
	drain(t, c, &pending, 20000)
	for i := 0; i < 20000; i++ {
		c.Tick()
	}
	st := c.Stats()
	if st.MetaReads != 1 || st.MetaWrites != 1 {
		t.Fatalf("meta traffic not queued: %d/%d", st.MetaReads, st.MetaWrites)
	}
}

// TestMetaWriteDoesNotForward: a pending metadata write (Hydra's RCT)
// is not the demand line at physical address 0, so a read of that line
// must queue for DRAM instead of completing from the write queue.
func TestMetaWriteDoesNotForward(t *testing.T) {
	c := newCtrl(t, testConfig(), nil, nil)
	c.queueMeta(0, 0, 1)
	if len(c.writeQ) != 1 {
		t.Fatalf("%d queued writes, want the metadata write", len(c.writeQ))
	}
	pending := 1
	if !c.Issue(0, false, func() { pending-- }) {
		t.Fatal("read rejected")
	}
	if len(c.readQ) != 1 || c.Stats().Reads != 0 {
		t.Fatalf("read of line 0 was forwarded from the metadata write (%d queued reads, %d serviced)",
			len(c.readQ), c.Stats().Reads)
	}
	drain(t, c, &pending, 20000)
}

type metaMit struct{ fired bool }

func (m *metaMit) Name() string { return "meta" }
func (m *metaMit) OnActivate(bank, row int) Action {
	if m.fired {
		return Action{}
	}
	m.fired = true
	return Action{MetaReads: 1, MetaWrites: 1}
}
func (m *metaMit) OnRefreshWindow() {}

func TestStatsHelpers(t *testing.T) {
	var st Stats
	if st.AvgReadLatency() != 0 || st.PrevRefBusyFraction(8) != 0 {
		t.Fatal("zero stats should yield zero metrics")
	}
	st.ReadLatencySum, st.ReadCount = 300, 3
	if st.AvgReadLatency() != 100 {
		t.Fatal("avg latency wrong")
	}
	st.PrevRefBusy, st.Cycles = 80, 10
	if st.PrevRefBusyFraction(8) != 1.0 {
		t.Fatal("busy fraction wrong")
	}
}

func BenchmarkControllerTickIdle(b *testing.B) {
	c, _ := NewController(testConfig(), nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick()
	}
}

func BenchmarkControllerTickLoaded(b *testing.B) {
	c, _ := NewController(testConfig(), nil, nil)
	mapper := c.Mapper()
	next := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			c.Issue(mapper.Encode(ddr.Address{Row: int(next) % 1024, Column: int(next) % 128}), next%5 == 0, func() {})
			next += 97
		}
		c.Tick()
	}
}
