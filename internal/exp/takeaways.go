package exp

import (
	"fmt"
	"slices"
	"strconv"

	"pacram/internal/characterize"
	"pacram/internal/stats"
)

// Takeaways re-verifies the paper's eight takeaways and reports the
// measured evidence for each: T1-T6 read characterization points at
// co's scale, and T7/T8 the NoPaCRAM and PaCRAM-H cells of fig17 and
// fig18 narrowed to RFM@64 (see scenario.ClaimFigures).
func Takeaways(co CharOptions, fig17, fig18 *Table) (*Table, error) {
	t := &Table{
		ID:      "takeaways",
		Title:   "The paper's eight takeaways, re-verified",
		Columns: []string{"takeaway", "paper statement", "measured evidence", "holds"},
	}
	perf, energy, err := readGains(fig17, fig18)
	if err != nil {
		return nil, err
	}

	// The takeaways name their modules, whatever co.Modules says.
	mods, err := CharOptions{}.modules("H5", "M2", "S6", "H7")
	if err != nil {
		return nil, err
	}
	h5, m2, s6, h7 := mods[0], mods[1], mods[2], mods[3]
	t1 := charPoint{h5, 0.36, 1, 80}
	t2 := charPoint{m2, 0.27, 1, 80}
	t4cold, t4hot := charPoint{s6, 0.45, 1, 50}, charPoint{s6, 0.45, 1, 80}
	t5 := charPoint{h7, 0.36, 15000, 80}
	res, err := co.measurePoints("takeaways", []charPoint{t1, t2, t4cold, t4hot, t5})
	if err != nil {
		return nil, err
	}

	// T1: charge restoration latency can be reduced to a safe minimum
	// without affecting NRH.
	_, r, _, err := lowestNRH(res, t1)
	if err != nil {
		return nil, err
	}
	t.AddRow("T1", "tRAS reducible to a safe minimum without affecting NRH",
		fmt.Sprintf("H5 lowest NRH at 0.36 tRAS = %.2fx nominal", r), verdict(r >= 0.95))

	// T2: ...without significantly affecting the lowest observed NRH.
	_, r, _, err = lowestNRH(res, t2)
	if err != nil {
		return nil, err
	}
	t.AddRow("T2", "lowest observed NRH robust at mfr-specific safe latencies",
		fmt.Sprintf("M2 lowest NRH at 0.27 tRAS = %.2fx nominal", r), verdict(r >= 0.97))

	// T3: BER does not grow significantly at the safe minimum (mean
	// per-row BER normalized to nominal).
	_, bers, err := normalizedPerRow(res, t1)
	if err != nil {
		return nil, err
	}
	if len(bers) == 0 {
		return nil, fmt.Errorf("exp: no BER samples for H5")
	}
	berRatio := stats.Mean(bers)
	t.AddRow("T3", "BER not significantly increased at the safe minimum",
		fmt.Sprintf("H5 mean BER at 0.36 tRAS = %.2fx nominal", berRatio), verdict(berRatio <= 1.05))

	// T4: temperature does not change the effect.
	_, cold, _, err := lowestNRH(res, t4cold)
	if err != nil {
		return nil, err
	}
	_, hot, _, err := lowestNRH(res, t4hot)
	if err != nil {
		return nil, err
	}
	diff := cold - hot
	if diff < 0 {
		diff = -diff
	}
	t.AddRow("T4", "temperature has no significant impact on the latency effect",
		fmt.Sprintf("S6@0.45 normalized NRH differs by %.3f between 50C and 80C", diff), verdict(diff <= 0.05))

	// T5: reduced latency is safe for many consecutive refreshes.
	_, r, _, err = lowestNRH(res, t5)
	if err != nil {
		return nil, err
	}
	t.AddRow("T5", "reduced latency safe for many consecutive preventive refreshes",
		fmt.Sprintf("H7 lowest NRH after 15K restores at 0.36 tRAS = %.2fx nominal", r), verdict(r >= 0.95))

	// T6: no data-retention failures at the safe minimum (one restore,
	// 64 ms: Fig. 14's cell).
	retention := retPoint{s6, 0.45, 1, 64}
	ret, err := runCells(co, "takeaways", []retPoint{retention})
	if err != nil {
		return nil, err
	}
	rr, err := ret.at(retention)
	if err != nil {
		return nil, err
	}
	frac := rr.FailFraction()
	t.AddRow("T6", "no retention failures at the safe minimum within tREFW",
		fmt.Sprintf("S6 retention-failure fraction at 0.45 tRAS, 64ms = %.3f", frac), verdict(frac == 0))

	// T7/T8: PaCRAM improves performance and energy.
	t.AddRow("T7", "PaCRAM significantly improves system performance", perf.String(), verdict(perf.raises()))
	t.AddRow("T8", "PaCRAM significantly reduces DRAM energy", energy.String(), verdict(energy.lowers()))
	return t, nil
}

func verdict(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// A Claim is one of the paper's artifact-evaluation claims (Appendix
// A.5) with its verdict and the measured evidence.
type Claim struct {
	ID, Statement, Evidence string
	Holds                   bool
}

// ArtifactClaims checks the paper's four artifact-evaluation claims
// (Appendix A.5): C1.1 and C1.2 read S6's characterization points at
// co's scale, and C2.1 and C2.2 read fig17 and fig18 as Takeaways does.
func ArtifactClaims(co CharOptions, fig17, fig18 *Table) ([]Claim, error) {
	perf, energy, err := readGains(fig17, fig18)
	if err != nil {
		return nil, err
	}
	mods, err := CharOptions{}.modules("S6")
	if err != nil {
		return nil, err
	}
	s6 := mods[0]

	// C1.1: every sampled row at nominal, 0.45 and 0.18 tRAS, paired
	// by row; unlike the figures, rows without bitflips count too.
	nom, red, deep := charPoint{s6, 1.0, 1, 80}, charPoint{s6, 0.45, 1, 80}, charPoint{s6, 0.18, 1, 80}
	res, err := co.measurePoints("artifact", []charPoint{red, deep})
	if err != nil {
		return nil, err
	}
	var nomRes characterize.ModuleResult
	byRow := make(map[int][]characterize.RowMeasurement) // at nom, red, deep
	for _, p := range []charPoint{nom, red, deep} {
		r, err := res.at(p)
		if err != nil {
			return nil, err
		}
		if p == nom {
			nomRes = r
		}
		for _, m := range r.Rows {
			byRow[m.LogicalRow] = append(byRow[m.LogicalRow], m)
		}
	}
	n := len(nomRes.Rows)
	if n == 0 {
		return nil, fmt.Errorf("exp: artifact: no S6 rows sampled")
	}
	var nrhNom, nrhRed, retZero int
	var berNom, berRed float64
	for _, row := range nomRes.Rows {
		m := byRow[row.LogicalRow]
		if len(m) != 3 {
			return nil, fmt.Errorf("exp: artifact: S6 row %d not measured at every latency", row.LogicalRow)
		}
		nrhNom, nrhRed = nrhNom+m[0].NRH, nrhRed+m[1].NRH
		berNom, berRed = berNom+m[0].BER, berRed+m[1].BER
		if m[2].NRH == 0 {
			retZero++
		}
	}

	// C1.2: retention failures after one and after 5000 restorations
	// at 0.36 tRAS within 64 ms.
	once, many := retPoint{s6, 0.36, 1, 64}, retPoint{s6, 0.36, 5000, 64}
	ret, err := runCells(co, "artifact", []retPoint{once, many})
	if err != nil {
		return nil, err
	}
	rOnce, err := ret.at(once)
	if err != nil {
		return nil, err
	}
	rMany, err := ret.at(many)
	if err != nil {
		return nil, err
	}

	return []Claim{
		{"C1.1", "reduced tRAS lowers NRH, raises BER; beyond safe minimum retention fails",
			fmt.Sprintf("S6: mean NRH %d -> %d at 0.45 tRAS; mean BER %.4f -> %.4f; %d/%d rows fail without hammering at 0.18 tRAS",
				nrhNom/n, nrhRed/n, berNom/float64(n), berRed/float64(n), retZero, n),
			nrhRed < nrhNom && berRed > berNom && retZero == n},
		{"C1.2", "repeated partial restoration causes failures; a single one does not",
			fmt.Sprintf("S6 at 0.36 tRAS within 64ms: %d/%d rows fail after 1 restore, %d/%d after 5000",
				rOnce.Failed, rOnce.Tested, rMany.Failed, rMany.Tested),
			rOnce.Failed == 0 && rMany.Failed > 0},
		{"C2.1", "PaCRAM improves single-core and multi-core performance",
			fmt.Sprintf("%s normalized weighted speedup, %s", fig17.ID, perf), perf.raises()},
		{"C2.2", "PaCRAM improves energy efficiency",
			fmt.Sprintf("%s normalized DRAM energy, %s", fig18.ID, energy), energy.lowers()},
	}, nil
}

// gain is PaCRAM-H's effect in one system figure: the single-core and
// multi-core cells of its NoPaCRAM and PaCRAM-H rows.
type gain struct {
	point         string     // the rows' mechanism and NRH, e.g. "RFM@64"
	single, multi [2]float64 // NoPaCRAM, PaCRAM-H
}

func (g gain) String() string {
	return fmt.Sprintf("%s+PaCRAM-H: 1-core %.4f->%.4f, 4-core %.4f->%.4f",
		g.point, g.single[0], g.single[1], g.multi[0], g.multi[1])
}

// raises and lowers report whether PaCRAM-H moves both cells up or
// down from NoPaCRAM.
func (g gain) raises() bool { return g.single[1] > g.single[0] && g.multi[1] > g.multi[0] }
func (g gain) lowers() bool { return g.single[1] < g.single[0] && g.multi[1] < g.multi[0] }

// readGains reads the system claims' evidence from the fig17
// (performance) and fig18 (energy) tables.
func readGains(fig17, fig18 *Table) (perf, energy gain, err error) {
	if perf, err = readGain(fig17); err != nil {
		return perf, energy, err
	}
	energy, err = readGain(fig18)
	return perf, energy, err
}

// claimColumns are the columns of the Figs. 17 and 18 tables.
var claimColumns = []string{"config", "mechanism", "NRH", "singleCoreNorm", "multiCoreNorm"}

// readGain reads the cells of t's NoPaCRAM and PaCRAM-H rows. t must
// be narrowed to one mechanism and NRH, so each row appears once; other
// columns, a missing or repeated row, or a cell that does not parse is
// an error.
func readGain(t *Table) (g gain, err error) {
	if !slices.Equal(t.Columns, claimColumns) {
		return g, fmt.Errorf("exp: %s: columns %q, want %q", t.ID, t.Columns, claimColumns)
	}
	configs := []string{"NoPaCRAM", "PaCRAM-H"}
	var seen [2]bool
	for _, row := range t.Rows {
		i := slices.Index(configs, row[0])
		if i < 0 {
			continue
		}
		if seen[i] {
			return g, fmt.Errorf("exp: %s: more than one %s row; want the table narrowed to one mechanism and NRH", t.ID, configs[i])
		}
		seen[i] = true
		g.point = row[1] + "@" + row[2]
		for j, dst := range []*[2]float64{&g.single, &g.multi} {
			if dst[i], err = strconv.ParseFloat(row[3+j], 64); err != nil {
				return g, fmt.Errorf("exp: %s: %s %s: %w", t.ID, configs[i], claimColumns[3+j], err)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return g, fmt.Errorf("exp: %s: no %s row", t.ID, configs[i])
		}
	}
	return g, nil
}
