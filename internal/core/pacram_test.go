package pacram

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pacram/internal/chips"
	"pacram/internal/ddr"
)

func mustModule(t testing.TB, id string) *chips.ModuleData {
	t.Helper()
	m, err := chips.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeriveS6WorkedExample(t *testing.T) {
	// §8.3's worked example: S6 at 0.36 tRAS with its measured NRH of
	// 3.9K and NPCR of 2K requires full restoration every ~374ms.
	m := mustModule(t, "S6")
	cfg, err := Derive(m, 4 /* 0.36 */, 3900, ddr.DDR4())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NPCR != 2000 {
		t.Fatalf("NPCR = %d, want 2000", cfg.NPCR)
	}
	// tFCRI = NPCR*(NRH*tRC + tRAS(Red) + tRP) with the scaled NRH.
	scaled := cfg.ScaledNRH(3900)
	want := 2000 * (float64(scaled)*ddr.DDR4().TRC() + cfg.ReducedTRASNs + ddr.DDR4().TRP)
	if math.Abs(cfg.TFCRINs-want) > 1 {
		t.Fatalf("tFCRI = %g, want %g", cfg.TFCRINs, want)
	}
	// The paper's 374ms is computed with the unscaled 3.9K threshold;
	// ours lands in the same regime (hundreds of ms).
	if ms := cfg.TFCRINs / 1e6; ms < 150 || ms > 500 {
		t.Fatalf("tFCRI = %.0fms, expected hundreds of ms", ms)
	}
	// Footnote 6: tFCRI exceeds DDR4's 64ms refresh window, so at this
	// (high) threshold every preventive refresh may be partial.
	if !cfg.AlwaysPartial() {
		t.Fatal("S6@0.36 with NRH 3.9K has tFCRI > tREFW; expected always-partial")
	}
}

// lowNRHConfig derives an S6@0.36 config at a low RowHammer threshold
// (future-chip regime) where tFCRI < tREFW and the FR vector engages.
func lowNRHConfig(t testing.TB) Config {
	t.Helper()
	m := mustModule(t, "S6")
	cfg, err := Derive(m, 4, 64, ddr.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AlwaysPartial() {
		t.Fatal("low-NRH config should activate the FR vector")
	}
	return cfg
}

func TestDeriveUnlimitedNPCRIsAlwaysPartial(t *testing.T) {
	m := mustModule(t, "M2") // flat module: NPCR unlimited everywhere
	cfg, err := Derive(m, 6 /* 0.18 */, 1024, ddr.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.AlwaysPartial() {
		t.Fatal("unlimited NPCR must make every preventive refresh partial")
	}
	if cfg.NRHScale < 0.9 {
		t.Fatalf("M2's NRH scale at 0.18 should be ~1, got %g", cfg.NRHScale)
	}
}

func TestDeriveRejectsRedCells(t *testing.T) {
	m := mustModule(t, "S6")
	if _, err := Derive(m, 6 /* 0.18: NRH=0 */, 1024, ddr.DDR4()); err == nil {
		t.Fatal("deriving a config for a red (NRH=0) cell must fail")
	}
	h0 := mustModule(t, "H0")
	if _, err := Derive(h0, 1, 1024, ddr.DDR4()); err == nil {
		t.Fatal("no-bitflip module must be rejected")
	}
}

func TestDeriveRejectsBadArgs(t *testing.T) {
	m := mustModule(t, "S6")
	if _, err := Derive(m, 99, 1024, ddr.DDR4()); err == nil {
		t.Fatal("factor index out of range must fail")
	}
	if _, err := Derive(m, 1, 0, ddr.DDR4()); err == nil {
		t.Fatal("non-positive NRH must fail")
	}
}

func TestScaledNRHFloorsAtOne(t *testing.T) {
	cfg := Config{NRHScale: 0.001}
	if cfg.ScaledNRH(32) != 1 {
		t.Fatal("scaled NRH must floor at 1")
	}
	cfg.NRHScale = 0.5
	if got := cfg.ScaledNRH(100); got != 50 {
		t.Fatalf("ScaledNRH(100) = %d, want 50", got)
	}
}

func TestBestFactorPerManufacturer(t *testing.T) {
	// The paper's best-observed latencies: H modules sit well below
	// nominal (H5: 0.36), M modules go lowest (M2: 0.18), S modules
	// stay moderate (S6: 0.45). BestFactor must land at or below those
	// manufacturers' orderings: factor(M2) <= factor(H5) <= factor(S6).
	tm := ddr.DDR5()
	get := func(id string) float64 {
		cfg, err := BestFactor(mustModule(t, id), 1024, tm)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Factor
	}
	h, m, s := get("H5"), get("M2"), get("S6")
	if !(m <= h && h <= s) {
		t.Fatalf("best factors H=%.2f M=%.2f S=%.2f violate the published ordering", h, m, s)
	}
	if s >= 1.0 {
		t.Fatal("even Mfr. S must benefit from some reduction")
	}
}

func TestPolicyStateMachine(t *testing.T) {
	cfg := lowNRHConfig(t)
	p := NewPolicy(cfg, 4, 1024)

	// First preventive refresh of a row: full (F state), second:
	// partial (P state).
	if h := p.VRRHold(1, 10, 0); h != cfg.NominalTRASNs {
		t.Fatalf("first refresh hold %g, want nominal %g", h, cfg.NominalTRASNs)
	}
	if h := p.VRRHold(1, 10, 100); h != cfg.ReducedTRASNs {
		t.Fatalf("second refresh hold %g, want reduced %g", h, cfg.ReducedTRASNs)
	}
	// Different row and different bank are independent.
	if h := p.VRRHold(1, 11, 200); h != cfg.NominalTRASNs {
		t.Fatal("row state leaked across rows")
	}
	if h := p.VRRHold(2, 10, 300); h != cfg.NominalTRASNs {
		t.Fatal("row state leaked across banks")
	}
}

func TestPolicyTFCRIReset(t *testing.T) {
	cfg := lowNRHConfig(t)
	p := NewPolicy(cfg, 1, 64)
	p.VRRHold(0, 5, 0)                    // full, sets P
	p.VRRHold(0, 5, 1000)                 // partial
	h := p.VRRHold(0, 5, cfg.TFCRINs*1.5) // next epoch: reset to F
	if h != cfg.NominalTRASNs {
		t.Fatalf("after tFCRI the row must be refreshed at nominal latency, got %g", h)
	}
	if h := p.VRRHold(0, 5, cfg.TFCRINs*1.5+1000); h != cfg.ReducedTRASNs {
		t.Fatalf("the reset epoch's full restoration must leave the row partial again, got %g", h)
	}
}

func TestPolicyNPCRBoundedPartials(t *testing.T) {
	// Within any tFCRI window, at most NPCR partial restorations can
	// hit one row: the worst case is one preventive refresh per
	// NRH*tRC, which is exactly how tFCRI is derived. Simulate the
	// worst-case schedule and count partials between full restores.
	tm := ddr.DDR5()
	cfg := lowNRHConfig(t)
	p := NewPolicy(cfg, 1, 8)
	period := float64(cfg.ScaledNRH(64))*tm.TRC() + cfg.ReducedTRASNs + tm.TRP
	partialRun := 0
	maxRun := 0
	for i := 0; i < 3*cfg.NPCR; i++ {
		h := p.VRRHold(0, 3, float64(i)*period)
		if h == cfg.ReducedTRASNs {
			partialRun++
			if partialRun > maxRun {
				maxRun = partialRun
			}
		} else {
			partialRun = 0
		}
	}
	if maxRun > cfg.NPCR {
		t.Fatalf("observed %d consecutive partial restorations, NPCR is %d", maxRun, cfg.NPCR)
	}
	if maxRun < cfg.NPCR/2 {
		t.Fatalf("policy too conservative: only %d consecutive partials allowed (NPCR %d)", maxRun, cfg.NPCR)
	}
}

func TestPolicyAlwaysPartialSkipsVector(t *testing.T) {
	m := mustModule(t, "M2")
	cfg, err := Derive(m, 6, 1024, ddr.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPolicy(cfg, 32, 65536)
	if p.MetadataBits() != 0 {
		t.Fatal("always-partial config must not allocate the FR vector")
	}
	for i := 0; i < 10; i++ {
		if h := p.VRRHold(3, 100, float64(i)); h != cfg.ReducedTRASNs {
			t.Fatal("always-partial config must always use reduced latency")
		}
	}
}

func TestPolicyOutOfRangeConservative(t *testing.T) {
	cfg := lowNRHConfig(t)
	p := NewPolicy(cfg, 2, 64)
	if h := p.VRRHold(5, 10, 0); h != cfg.NominalTRASNs {
		t.Fatal("out-of-range bank must fall back to nominal latency")
	}
	if h := p.VRRHold(0, -2, 0); h != cfg.NominalTRASNs {
		t.Fatal("out-of-range row must fall back to nominal latency")
	}
}

func TestPolicyPartialFractionProperty(t *testing.T) {
	// Property: over arbitrary refresh sequences crossing tFCRI
	// boundaries, a row's hold is nominal exactly on its first
	// preventive refresh in an epoch and reduced on every later one.
	cfg := lowNRHConfig(t)
	f := func(rows []uint8) bool {
		p := NewPolicy(cfg, 1, 256)
		full := make(map[uint8]bool)
		epoch := int64(-1)
		for i, r := range rows {
			now := float64(i) * cfg.TFCRINs / 7
			if e := int64(now / cfg.TFCRINs); e != epoch {
				epoch = e
				clear(full)
			}
			want := cfg.ReducedTRASNs
			if !full[r] {
				want = cfg.NominalTRASNs
			}
			full[r] = true
			if p.VRRHold(0, int(r), now) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicPolicyScale(t *testing.T) {
	m := mustModule(t, "S6")
	cfg, _ := Derive(m, 3 /* 0.45 */, 3900, ddr.DDR5())
	pp := NewPeriodicPolicy(NewPolicy(cfg, 1, 64))
	s := pp.PeriodicScale(0)
	want := (cfg.ReducedTRASNs + cfg.TRPNs) / (cfg.NominalTRASNs + cfg.TRPNs)
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("periodic scale %g, want %g", s, want)
	}
	if s >= 1 || s <= 0 {
		t.Fatalf("periodic scale %g out of (0,1)", s)
	}
}

func TestAreaModelMatchesPaper(t *testing.T) {
	// Dual-rank, 16 banks per rank, 64K rows per bank: 0.09% of a
	// high-end Xeon, 8KB per bank.
	area := AreaMM2(32, 65536)
	if pct := XeonOverheadPercent(area); math.Abs(pct-0.09) > 0.01 {
		t.Fatalf("Xeon overhead %.3f%%, paper reports 0.09%%", pct)
	}
	if b := StorageBytes(1, 65536); b != 8192 {
		t.Fatalf("per-bank storage %dB, want 8KB", b)
	}
	if pct := MemCtrlOverheadPercent(area); math.Abs(pct-1.35) > 0.1 {
		t.Fatalf("memory-controller overhead %.2f%%, paper reports 1.35%%", pct)
	}
	if AccessLatencyNs >= 14 {
		t.Fatal("FR access latency must hide under row activation")
	}
}

func TestConfigString(t *testing.T) {
	m := mustModule(t, "S6")
	cfg, _ := Derive(m, 4, 3900, ddr.DDR4())
	s := cfg.String()
	if !strings.Contains(s, "S6") || !strings.Contains(s, "NPCR 2000") {
		t.Fatalf("unexpected String(): %s", s)
	}
}

func BenchmarkPolicyVRRHold(b *testing.B) {
	m, _ := chips.ByID("S6")
	cfg, _ := Derive(m, 4, 3900, ddr.DDR4())
	p := NewPolicy(cfg, 32, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.VRRHold(i%32, i%65536, float64(i))
	}
}
