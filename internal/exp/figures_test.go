package exp_test

import (
	"testing"

	"pacram/internal/exp"
	"pacram/internal/scenario"
)

// The paper's Figs. 3 and 17-19 run as scenario specs rescaled by
// SysOptions (scenario.FigureSpec); these tests check the figures'
// claims at the tiny scale the exp package tests use.

func figure(t *testing.T, id string, o exp.SysOptions) *exp.Table {
	t.Helper()
	s, err := scenario.FigureSpec(id, o)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := scenario.Run(s, scenario.RunOptions{Parallel: o.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
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
