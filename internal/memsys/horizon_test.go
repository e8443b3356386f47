package memsys_test

import (
	"testing"

	"pacram/internal/ddr"
	"pacram/internal/memsys"
	"pacram/internal/mitigation"
	"pacram/internal/xrand"
)

func horizonConfig() memsys.Config {
	cfg := memsys.DefaultConfig()
	g := ddr.PaperSystem()
	g.Rows = 1024
	cfg.Geometry = g
	return cfg
}

func horizonCtrl(t testing.TB, cfg memsys.Config, m memsys.Mitigation) *memsys.Controller {
	t.Helper()
	c, err := memsys.NewController(cfg, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkHorizonSoundness drives a controller tick by tick and verifies
// the NextEvent contract on every step: no event (Events change) may
// occur strictly before the promised horizon, and the horizon is
// always in the future. Leaps are sequences of no-op ticks, so
// single-step soundness is exactly the property the event-horizon
// engine relies on.
func checkHorizonSoundness(t *testing.T, c *memsys.Controller, issue func(cycle uint64, c *memsys.Controller), cycles int) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		issue(c.Cycle(), c) // external traffic, standing in for the cores
		ne := c.NextEvent()
		if ne <= c.Cycle() {
			t.Fatalf("NextEvent %d not in the future at cycle %d", ne, c.Cycle())
		}
		before := c.Events()
		c.Tick()
		if c.Events() != before && c.Cycle() < ne {
			t.Fatalf("event at cycle %d but NextEvent promised quiet until %d", c.Cycle(), ne)
		}
	}
}

func mitigFor(t *testing.T, name string, cfg memsys.Config, nrh int) memsys.Mitigation {
	t.Helper()
	m, err := mitigation.New(name, mitigation.Config{
		NRH:         nrh,
		Rows:        cfg.Geometry.Rows,
		Banks:       cfg.Geometry.TotalBanks(),
		BlastRadius: cfg.BlastRadius,
		WindowActs:  int(cfg.Timing.TREFW / cfg.Timing.TRC()),
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNextEventSoundness exercises the horizon computation under
// adversarial same-bank hammering (VRR and RFM paths, PRAC's
// precharge tax), metadata traffic (Hydra), write drains, bursty idle
// gaps and scaled-tRFC refresh.
func TestNextEventSoundness(t *testing.T) {
	cfg := horizonConfig()
	mapper, err := ddr.NewMOPMapper(cfg.Geometry, cfg.MOPWidth)
	if err != nil {
		t.Fatal(err)
	}
	addr := func(bank ddr.Address) uint64 { return mapper.Encode(bank) }

	vrrs := func(st memsys.Stats) uint64 { return st.VRRs }
	rfms := func(st memsys.Stats) uint64 { return st.RFMs }
	for _, tc := range []struct {
		name  string
		mitig string
		nrh   int
		trfc  float64
		// acted counts what the row's mechanism did; every row must
		// exercise its own readiness branch at least once.
		what  string
		acted func(memsys.Stats) uint64
	}{
		{"hammer-para", "PARA", 16, 1.0, "VRRs", vrrs},
		{"hammer-graphene", "Graphene", 8, 1.0, "VRRs", vrrs},
		{"hammer-hydra-meta", "Hydra", 32, 1.0, "metadata writes", func(st memsys.Stats) uint64 { return st.MetaWrites }},
		{"hammer-rfm", "RFM", 16, 1.0, "RFMs", rfms},
		{"hammer-prac", "PRAC", 4, 1.0, "RFMs", rfms},
		{"no-mitigation-trfc-scaled", "", 0, 4.42, "REFs", func(st memsys.Stats) uint64 { return st.Refs }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg
			if tc.trfc != 1.0 {
				cfg.Timing = cfg.Timing.ScaleTRFC(tc.trfc)
			}
			var mitig memsys.Mitigation
			if tc.mitig != "" {
				mitig = mitigFor(t, tc.mitig, cfg, tc.nrh)
			}
			c := horizonCtrl(t, cfg, mitig)

			// Traffic: a same-bank row hammer with victim reads, a
			// second stream over scattered banks, occasional write
			// bursts (to flip the drain hysteresis), and idle gaps (to
			// grow the horizon).
			rng := xrand.New(0xD15EA5E)
			n := 0
			issue := func(cycle uint64, c *memsys.Controller) {
				switch phase := (cycle / 512) % 4; phase {
				case 3:
					return // idle gap: nothing issued for 512 cycles
				case 2:
					if cycle%2 == 0 { // write burst
						a := ddr.Address{Bank: int(rng.Uint64() % 4), Row: int(rng.Uint64() % 64)}
						c.Issue(addr(a), true, nil)
					}
					return
				default:
					n++
					a := ddr.Address{Row: 100 + n%2} // two-sided hammer, bank 0
					if n%7 == 0 {
						a = ddr.Address{BankGroup: n % 8, Bank: n % 4, Row: n % 512}
					}
					a.Column = n % cfg.Geometry.Columns
					c.Issue(addr(a), false, func() {})
				}
			}
			checkHorizonSoundness(t, c, issue, 60_000)
			acted := tc.acted(c.Stats())
			t.Logf("%s: %d", tc.what, acted)
			if acted == 0 {
				t.Fatalf("no %s in 60k cycles: the row checks nothing of its mechanism", tc.what)
			}
		})
	}
}

// TestAdvanceToMatchesIdleTicks replays an idle stretch both ways —
// AdvanceTo in one jump vs ticking cycle by cycle — and requires
// identical stats, confirming nothing is accumulated per cycle.
func TestAdvanceToMatchesIdleTicks(t *testing.T) {
	build := func() *memsys.Controller {
		cfg := horizonConfig()
		cfg.RefreshEnabled = false // keep the horizon unbounded
		c := horizonCtrl(t, cfg, nil)
		for i := 0; i < 4; i++ {
			c.Tick()
		}
		return c
	}
	a, b := build(), build()
	if a.NextEvent() != b.NextEvent() {
		t.Fatal("identical controllers report different horizons")
	}
	for i := 0; i < 1000; i++ {
		a.Tick()
	}
	b.AdvanceTo(b.Cycle() + 1000)
	if a.Cycle() != b.Cycle() || a.Stats() != b.Stats() || a.Events() != b.Events() {
		t.Fatalf("AdvanceTo diverged from ticking:\nticked:   %+v\nadvanced: %+v", a.Stats(), b.Stats())
	}
}
