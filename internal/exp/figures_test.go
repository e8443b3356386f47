package exp_test

import (
	"os"
	"path/filepath"
	"testing"

	"pacram/internal/exp"
	"pacram/internal/scenario"
)

// The paper's Figs. 3 and 16-19 and the per-workload run table run as
// scenario specs rescaled by SysOptions (scenario.FigureSpec); these
// tests check the figures' claims at the tiny scale the exp package
// tests use.

func figure(t *testing.T, id string, o exp.SysOptions) *exp.Table {
	t.Helper()
	return runFigure(t, id, o, scenario.RunOptions{})
}

func runFigure(t *testing.T, id string, o exp.SysOptions, ropt scenario.RunOptions) *exp.Table {
	t.Helper()
	s, err := scenario.FigureSpec(id, o)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := scenario.Run(s, ropt)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestParallelBitIdentical is the engine's core guarantee at the
// driver level: running the same figure at 1 and at 8 workers renders
// byte-identical tables, for both simulation and characterization
// sweeps.
func TestParallelBitIdentical(t *testing.T) {
	so := exp.TinySys()
	so.Workloads = []string{"429.mcf"}
	so.Mitigations = []string{"PARA", "RFM"}
	for _, id := range []string{"fig16", "run"} {
		serial := runFigure(t, id, so, scenario.RunOptions{Parallel: 1})
		par := runFigure(t, id, so, scenario.RunOptions{Parallel: 8})
		if exp.Render(t, serial) != exp.Render(t, par) {
			t.Errorf("%s differs between -parallel 1 and -parallel 8", id)
		}
	}

	co := exp.TinyChar()
	co.Modules = []string{"H5", "S6"}
	co.Parallel = 1
	serialFig6, err := exp.Fig6(co)
	if err != nil {
		t.Fatal(err)
	}
	co.Parallel = 8
	parFig6, err := exp.Fig6(co)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Render(t, serialFig6) != exp.Render(t, parFig6) {
		t.Error("fig6 differs between -parallel 1 and -parallel 8")
	}
}

// TestSweepCacheRoundTrip runs one figure cold and then warm from the
// same cache directory: the warm run must be served from JSON on disk
// and render the identical table.
func TestSweepCacheRoundTrip(t *testing.T) {
	o := exp.TinySys()
	o.Mitigations = []string{"PARA"}
	ropt := scenario.RunOptions{CacheDir: t.TempDir()}
	cold := exp.Render(t, runFigure(t, "run", o, ropt))
	entries, err := filepath.Glob(filepath.Join(ropt.CacheDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("cold run left no cache entries")
	}
	if warm := exp.Render(t, runFigure(t, "run", o, ropt)); warm != cold {
		t.Error("cached results render differently")
	}

	// Corrupt an entry: the warm run must recompute it, not fail.
	if err := os.WriteFile(entries[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if again := exp.Render(t, runFigure(t, "run", o, ropt)); again != cold {
		t.Error("recovery from corrupt cache entry changed results")
	}
}

func TestFig3Ordering(t *testing.T) {
	o := exp.TinySys()
	o.Mitigations = []string{"PARA", "Graphene"}
	o.NRHs = []int{64}
	tbl := figure(t, "fig3", o)
	var para, graphene float64 = -1, -1
	for _, r := range tbl.Rows {
		if r[0] == "PARA" {
			para = exp.CellF(t, r, 2)
		}
		if r[0] == "Graphene" {
			graphene = exp.CellF(t, r, 2)
		}
	}
	if para <= graphene {
		t.Fatalf("PARA busy %.3f%% should exceed Graphene %.3f%%", para, graphene)
	}
}

func TestFig17PaCRAMHelpsRFM(t *testing.T) {
	o := exp.TinySys()
	o.Mitigations = []string{"RFM"}
	o.NRHs = []int{64}
	tbl := figure(t, "fig17", o)
	get := func(cfg string) float64 {
		for _, r := range tbl.Rows {
			if r[0] == cfg {
				return exp.CellF(t, r, 3)
			}
		}
		t.Fatalf("config %s missing", cfg)
		return 0
	}
	noPac := get("NoPaCRAM")
	pacH := get("PaCRAM-H")
	pacM := get("PaCRAM-M")
	if pacH <= noPac {
		t.Errorf("PaCRAM-H (%.3f) did not beat NoPaCRAM (%.3f)", pacH, noPac)
	}
	if pacM <= noPac {
		t.Errorf("PaCRAM-M (%.3f) did not beat NoPaCRAM (%.3f)", pacM, noPac)
	}
	if noPac >= 1.0 {
		t.Errorf("RFM at NRH=64 should cost performance vs no mitigation (%.3f)", noPac)
	}
}

func TestFig18PaCRAMSavesEnergy(t *testing.T) {
	o := exp.TinySys()
	o.Mitigations = []string{"PARA"}
	o.NRHs = []int{64}
	tbl := figure(t, "fig18", o)
	var noPac, pacH float64 = -1, -1
	for _, r := range tbl.Rows {
		if r[0] == "NoPaCRAM" {
			noPac = exp.CellF(t, r, 3)
		}
		if r[0] == "PaCRAM-H" {
			pacH = exp.CellF(t, r, 3)
		}
	}
	if pacH >= noPac {
		t.Errorf("PaCRAM-H energy (%.3f) not below NoPaCRAM (%.3f)", pacH, noPac)
	}
	if noPac <= 1.0 {
		t.Errorf("PARA at NRH=64 should cost energy vs no mitigation (%.3f)", noPac)
	}
}

func TestFig19RefreshCostGrowsWithDensity(t *testing.T) {
	tbl := figure(t, "fig19", exp.TinySys())
	get := func(density, factor string) float64 {
		for _, r := range tbl.Rows {
			if r[0] == density && r[1] == factor {
				return exp.CellF(t, r, 2)
			}
		}
		t.Fatalf("row %s/%s missing", density, factor)
		return 0
	}
	small := get("8", "1.0000")
	big := get("512", "1.0000")
	if big >= small {
		t.Fatalf("refresh cost must grow with density: WS %.3f at 8Gb vs %.3f at 512Gb", small, big)
	}
	reduced := get("512", "0.3600")
	if reduced <= big {
		t.Fatalf("reduced periodic latency must help at 512Gb: %.3f vs %.3f", reduced, big)
	}
}

func TestFig16Normalization(t *testing.T) {
	o := exp.TinySys()
	o.Workloads = []string{"429.mcf"}
	o.Mitigations = []string{"PARA"}
	o.NRHs = []int{64}
	tbl := figure(t, "fig16", o)
	// Every config has the factor-1.0 anchor at exactly 1.0, and
	// PaCRAM-H's best region exceeds it.
	sawAnchor, sawImprovement := false, false
	for _, r := range tbl.Rows {
		if r[3] == "1.0000" && r[4] == "1.0000" {
			sawAnchor = true
		}
		if r[0] == "PaCRAM-H" && r[3] != "1.0000" {
			if exp.CellF(t, r, 4) > 1.0 {
				sawImprovement = true
			}
		}
	}
	if !sawAnchor {
		t.Fatal("fig16 missing the factor-1.0 anchor rows")
	}
	if !sawImprovement {
		t.Fatal("fig16: PaCRAM-H never improved over the anchor")
	}
}

func TestRunTableDetail(t *testing.T) {
	o := exp.TinySys()
	o.Workloads = []string{"470.lbm"}
	o.Mitigations = []string{"RFM", "PRAC"}
	o.NRHs = []int{64}
	tbl := figure(t, "run", o)
	if len(tbl.Rows) != 3 { // baseline + 2 mechanisms
		t.Fatalf("run table has %d rows, want 3", len(tbl.Rows))
	}
	var baseIPC, pracIPC float64
	for _, r := range tbl.Rows {
		switch r[1] {
		case "None":
			baseIPC = exp.CellF(t, r, 3)
		case "PRAC":
			pracIPC = exp.CellF(t, r, 3)
		}
	}
	if pracIPC >= baseIPC {
		t.Fatalf("PRAC timing tax missing in run table: %.4f vs %.4f", pracIPC, baseIPC)
	}
}

// TestTakeawaysGolden compares the default-scale takeaways table with
// `simulate -exp takeaways`'s golden output.
func TestTakeawaysGolden(t *testing.T) {
	fig17, fig18, err := scenario.ClaimFigures(exp.DefaultSysOptions(), scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := exp.Takeaways(exp.DefaultCharOptions(), fig17, fig18)
	if err != nil {
		t.Fatal(err)
	}
	exp.Golden(t, "testdata/takeaways.golden", exp.Render(t, tbl))
}

// TestTakeawaysAllHold: at the tiny scale every takeaway and every
// artifact claim holds; RFM@64 PaCRAM-H beats NoPaCRAM on all four
// figure cells.
func TestTakeawaysAllHold(t *testing.T) {
	co := exp.TinyChar()
	co.Rows = 12
	fig17, fig18, err := scenario.ClaimFigures(exp.TinySys(), scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := exp.Takeaways(co, fig17, fig18)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("takeaways table has %d rows, want 8", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r[3] != "yes" {
			t.Errorf("%s does not hold: %s (%s)", r[0], r[1], r[2])
		}
	}
	claims, err := exp.ArtifactClaims(co, fig17, fig18)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 4 {
		t.Fatalf("%d artifact claims, want 4", len(claims))
	}
	for _, c := range claims {
		if !c.Holds {
			t.Errorf("%s does not hold: %s (%s)", c.ID, c.Statement, c.Evidence)
		}
	}
}
