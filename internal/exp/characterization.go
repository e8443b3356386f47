package exp

import (
	"fmt"
	"io"
	"math"

	"pacram/internal/bender"
	"pacram/internal/characterize"
	"pacram/internal/chips"
	pacram "pacram/internal/core"
	"pacram/internal/ddr"
	"pacram/internal/energy"
	"pacram/internal/runner"
	"pacram/internal/stats"
)

// CharOptions scales the characterization experiments. Defaults keep
// full-registry sweeps in seconds; raise Rows toward the paper's 3K
// for tighter statistics.
type CharOptions struct {
	// Rows sampled per module (the paper tests 3K).
	Rows int
	// BankRows is the modeled bank size (power of two).
	BankRows int
	// Modules restricts the sweep (empty = experiment default).
	Modules []string
	// Iterations per measurement (the paper uses 5).
	Iterations int
	Seed       uint64

	// Parallel bounds the runner's worker pool (0 = all CPUs).
	// Results are bit-identical at any worker count.
	Parallel int
	// Store, when non-nil, keeps per-sweep-point results (the
	// command's runner.OpenStore stack), so a point one experiment
	// measured is a hit for the next, and with a disk or remote tier
	// repeated runs at the same scale skip finished points.
	Store runner.Store
	// Progress, when non-nil, receives streaming progress and ETA
	// (typically os.Stderr).
	Progress io.Writer
}

// DefaultCharOptions returns the fast default scale.
func DefaultCharOptions() CharOptions {
	return CharOptions{Rows: 24, BankRows: 128, Iterations: 1, Seed: 0x9ac24a}
}

// Validate rejects a scale no measurement can run at, with an error
// naming the flag that sets it. Every run checks it; a command that
// does other work first calls it up front.
func (o CharOptions) Validate() error {
	if o.Rows < 1 {
		return fmt.Errorf("exp: -rows %d: rows per module must be at least 1", o.Rows)
	}
	if o.BankRows < 1 || o.BankRows&(o.BankRows-1) != 0 {
		return fmt.Errorf("exp: -bankrows %d: rows per bank must be a positive power of two", o.BankRows)
	}
	return nil
}

func (o CharOptions) deviceOptions() chips.DeviceOptions {
	opt := chips.DefaultDeviceOptions()
	opt.Rows = o.BankRows
	opt.Seed = o.Seed
	return opt
}

func (o CharOptions) config() characterize.Config {
	cfg := characterize.DefaultConfig()
	cfg.Iterations = o.Iterations
	return cfg
}

// modules resolves the module IDs to sweep: Modules when set, else the
// experiment's defaults, else the whole registry. A module listed twice
// is an error, since it would count its rows twice.
func (o CharOptions) modules(defaults ...string) ([]*chips.ModuleData, error) {
	ids := o.Modules
	if len(ids) == 0 {
		ids = defaults
	}
	if len(ids) == 0 {
		return chips.Registry(), nil
	}
	out := make([]*chips.ModuleData, 0, len(ids))
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("exp: module %s listed twice", id)
		}
		seen[id] = true
		m, err := chips.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// withBitflips drops the modules that show no RowHammer bitflips at
// any latency (the paper's "no bitflips" rows of Table 3).
func withBitflips(mods []*chips.ModuleData) []*chips.ModuleData {
	var out []*chips.ModuleData
	for _, m := range mods {
		if !m.NoBitflips {
			out = append(out, m)
		}
	}
	return out
}

// A cell is one measurement a builder plans. Its key names it in the
// job matrix and the result store; measure runs it on a platform of
// its own. The device model is closed-form per row, so a cell measured
// in isolation is bit-identical to one measured mid-sequence, which is
// what makes the fan-out safe.
type cell[T any] interface {
	key() string
	measure(CharOptions) (T, error)
}

// results holds one run's measurements, in the order of the matrix's
// jobs.
type results[T any] struct {
	m    *runner.Matrix[T]
	vals []T
}

// at returns the measurement of c. A builder reads only the cells it
// listed, so a cell that was never planned is an error.
func (r results[T]) at(c cell[T]) (T, error) {
	i, ok := r.m.Index(c.key())
	if !ok {
		var zero T
		return zero, fmt.Errorf("exp: internal: cell %s not planned", c.key())
	}
	return r.vals[i], nil
}

// runCells measures the cells through the runner, each distinct key
// once, under the characterization fingerprint, which covers every
// scale knob outside the keys.
func runCells[T any, C cell[T]](o CharOptions, label string, cells []C) (results[T], error) {
	m := runner.NewMatrix[T]()
	for _, c := range cells {
		m.Add(c.key(), func(runner.Ctx) (T, error) {
			v, err := c.measure(o)
			if err != nil {
				return v, fmt.Errorf("exp: %s: %w", c.key(), err)
			}
			return v, nil
		})
	}
	if err := o.Validate(); err != nil {
		return results[T]{}, err
	}
	vals, err := runner.Run(runner.Options{
		Workers: o.Parallel,
		Seed:    o.Seed,
		Fingerprint: fmt.Sprintf("char:v1:rows=%d:bank=%d:iters=%d:seed=%d",
			o.Rows, o.BankRows, o.Iterations, o.Seed),
		Store:    o.Store,
		Progress: o.Progress,
		Label:    label,
	}, m.Jobs())
	return results[T]{m, vals}, err
}

// platform builds a fresh test platform for m at 80 C and selects the
// rows to test, for the Half-Double and retention cells (Algorithm 1
// cells build theirs inside characterize.MeasureModule).
func (o CharOptions) platform(m *chips.ModuleData) (*bender.Platform, []int, error) {
	pl, err := bender.New(m.NewChip(o.deviceOptions()), o.Seed)
	if err != nil {
		return nil, nil, err
	}
	pl.SetTemperature(80)
	return pl, characterize.SelectRows(pl, o.Rows), nil
}

// charPoint is one Algorithm 1 measurement of a module: charge
// restoration latency as a fraction of nominal tRAS, the count of
// consecutive partial restorations, and the temperature.
type charPoint struct {
	mod    *chips.ModuleData
	factor float64
	npr    int
	temp   float64
}

func (p charPoint) key() string {
	return fmt.Sprintf("char/%s/f%.4f/npr%d/t%g", p.mod.Info.ID, p.factor, p.npr, p.temp)
}

func (p charPoint) measure(o CharOptions) (characterize.ModuleResult, error) {
	return characterize.MeasureModule(p.mod, o.deviceOptions(), p.factor, p.npr, p.temp, o.Rows, o.config())
}

// nominal is the anchor p is normalized to: the same module and
// temperature at full tRAS with one restoration.
func (p charPoint) nominal() charPoint { return charPoint{p.mod, 1.0, 1, p.temp} }

// grid lists every module x factor x restoration count x temperature.
func grid(mods []*chips.ModuleData, factors []float64, nprs []int, temps ...float64) []charPoint {
	var out []charPoint
	for _, m := range mods {
		for _, temp := range temps {
			for _, f := range factors {
				for _, npr := range nprs {
					out = append(out, charPoint{m, f, npr, temp})
				}
			}
		}
	}
	return out
}

// measurePoints runs the points, each with its nominal anchor.
func (o CharOptions) measurePoints(label string, points []charPoint) (results[characterize.ModuleResult], error) {
	cells := make([]charPoint, 0, 2*len(points))
	for _, p := range points {
		cells = append(cells, p.nominal(), p)
	}
	return runCells(o, label, cells)
}

// rowPairs calls fn with each row's measurements at p's nominal anchor
// and at p, skipping rows without a nominal NRH.
func rowPairs(res results[characterize.ModuleResult], p charPoint, fn func(nom, at characterize.RowMeasurement)) error {
	nom, err := res.at(p.nominal())
	if err != nil {
		return err
	}
	red, err := res.at(p)
	if err != nil {
		return err
	}
	byRow := make(map[int]characterize.RowMeasurement, len(red.Rows))
	for _, r := range red.Rows {
		byRow[r.LogicalRow] = r
	}
	for _, n := range nom.Rows {
		r, ok := byRow[n.LogicalRow]
		if !ok || n.NoBitflips || n.NRH == 0 {
			continue
		}
		fn(n, r)
	}
	return nil
}

// normalizedPerRow returns per-row NRH and BER at p normalized to the
// same row's values at p's nominal anchor (NRH ratio 0 encodes
// retention failures).
func normalizedPerRow(res results[characterize.ModuleResult], p charPoint) (nrhRatios, berRatios []float64, err error) {
	err = rowPairs(res, p, func(nom, at characterize.RowMeasurement) {
		nrhRatios = append(nrhRatios, float64(at.NRH)/float64(nom.NRH))
		if nom.BER > 0 {
			berRatios = append(berRatios, at.BER/nom.BER)
		}
	})
	return nrhRatios, berRatios, err
}

// lowestNRH returns the lowest NRH at p (any is false when no sampled
// row flips) and its ratio to the lowest NRH at p's nominal anchor (0
// when either shows no bitflips).
func lowestNRH(res results[characterize.ModuleResult], p charPoint) (lowest int, ratio float64, any bool, err error) {
	nom, err := res.at(p.nominal())
	if err != nil {
		return 0, 0, false, err
	}
	at, err := res.at(p)
	if err != nil {
		return 0, 0, false, err
	}
	lowest, any = at.LowestNRH()
	if nomLowest, nomAny := nom.LowestNRH(); any && nomAny && nomLowest > 0 {
		ratio = float64(lowest) / float64(nomLowest)
	}
	return lowest, ratio, any, nil
}

// hdPoint is one Half-Double measurement of Fig. 13, at 80 C.
type hdPoint struct {
	mod    *chips.ModuleData
	factor float64
	npr    int
}

func (p hdPoint) key() string {
	return fmt.Sprintf("fig13/%s/f%.4f/npr%d", p.mod.Info.ID, p.factor, p.npr)
}

func (p hdPoint) measure(o CharOptions) (characterize.HalfDoubleResult, error) {
	pl, rows, err := o.platform(p.mod)
	if err != nil {
		return characterize.HalfDoubleResult{}, err
	}
	return characterize.MeasureHalfDoubleModule(pl, p.mod.Info.ID, rows, p.factor, p.npr,
		characterize.DefaultHalfDoubleConfig(), o.config())
}

// retPoint is one data-retention measurement of Fig. 14, at 80 C.
type retPoint struct {
	mod      *chips.ModuleData
	factor   float64
	restores int
	waitMs   float64
}

func (p retPoint) key() string {
	return fmt.Sprintf("fig14/%s/f%.4f/r%d/w%g", p.mod.Info.ID, p.factor, p.restores, p.waitMs)
}

func (p retPoint) measure(o CharOptions) (characterize.RetentionResult, error) {
	pl, rows, err := o.platform(p.mod)
	if err != nil {
		return characterize.RetentionResult{}, err
	}
	return characterize.MeasureRetentionModule(pl, p.mod.Info.ID, rows, p.factor, p.restores, p.waitMs)
}

// Table1 regenerates the tested-chip inventory.
func Table1(o CharOptions) (*Table, error) {
	t := &Table{
		ID:    "table1",
		Title: "Tested DDR4 DRAM chips (paper Table 1)",
		Columns: []string{"Mfr", "ID", "Part", "Form", "Die", "DensityGb",
			"Org", "Date", "Chips"},
	}
	total := 0
	for _, m := range chips.Registry() {
		i := m.Info
		t.AddRow(string(i.Mfr), i.ID, i.PartNumber, i.FormFactor, i.DieRev,
			i.DensityGb, fmt.Sprintf("x%d", i.DQ), i.DateCode, i.Chips)
		total += i.Chips
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d modules, %d chips total", len(chips.Registry()), total))
	return t, nil
}

// boxCols are the box-and-whiskers columns shared by Figs. 6, 9-12.
var boxCols = []string{"min", "q1", "median", "q3", "max", "n"}

func addBox(t *Table, prefix []interface{}, s stats.Summary) {
	cells := append(prefix, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.N)
	t.AddRow(cells...)
}

// Fig6 measures normalized NRH vs restoration latency per manufacturer
// (box plots over all tested rows).
func Fig6(o CharOptions) (*Table, error) {
	return mfrBoxes(o, &Table{
		ID:      "fig6",
		Title:   "NRH vs charge restoration latency, per manufacturer (paper Fig. 6)",
		Columns: append([]string{"mfr", "factor"}, boxCols...),
	}, []int{1}, func(nrh, _ []float64) []float64 { return nrh })
}

// mfrBoxes builds the per-manufacturer box plots of Figs. 6, 9 and 11:
// per factor and restoration count, one box over the ratios pick
// selects (NRH or BER) of every tested row of the manufacturer's
// modules. A sweep over more than one restoration count gets a column
// for it.
func mfrBoxes(o CharOptions, t *Table, restores []int, pick func(nrh, ber []float64) []float64) (*Table, error) {
	mods, err := o.modules()
	if err != nil {
		return nil, err
	}
	mods = withBitflips(mods)
	res, err := o.measurePoints(t.ID, grid(mods, chips.Factors[:], restores, 80))
	if err != nil {
		return nil, err
	}
	for _, mfr := range chips.Mfrs() {
		for _, f := range chips.Factors {
			for _, npr := range restores {
				var all []float64
				for _, m := range mods {
					if m.Info.Mfr != mfr {
						continue
					}
					nrh, ber, err := normalizedPerRow(res, charPoint{m, f, npr, 80})
					if err != nil {
						return nil, err
					}
					all = append(all, pick(nrh, ber)...)
				}
				if len(all) == 0 {
					continue
				}
				prefix := []interface{}{string(mfr), f}
				if len(restores) > 1 {
					prefix = append(prefix, npr)
				}
				addBox(t, prefix, stats.Summarize(all))
			}
		}
	}
	return t, nil
}

// Fig7 measures the lowest observed NRH per module vs latency.
func Fig7(o CharOptions) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Lowest observed NRH vs charge restoration latency, per module (paper Fig. 7)",
		Columns: []string{"mfr", "module", "factor", "lowestNRH", "normalized"},
	}
	mods, err := o.modules()
	if err != nil {
		return nil, err
	}
	mods = withBitflips(mods)
	res, err := o.measurePoints("fig7", grid(mods, chips.Factors[:], []int{1}, 80))
	if err != nil {
		return nil, err
	}
	for _, m := range mods {
		for _, f := range chips.Factors {
			lowest, ratio, any, err := lowestNRH(res, charPoint{m, f, 1, 80})
			if err != nil {
				return nil, err
			}
			if any {
				t.AddRow(string(m.Info.Mfr), m.Info.ID, f, lowest, ratio)
			}
		}
	}
	return t, nil
}

// Fig8 scatters per-row NRH at 0.45 tRAS against nominal NRH for the
// paper's three representative modules (H8, M5, S1).
func Fig8(o CharOptions) (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Per-row NRH at 0.45 tRAS vs nominal (paper Fig. 8)",
		Columns: []string{"module", "row", "nominalNRH", "ratioAt0.45"},
	}
	mods, err := o.modules("H8", "M5", "S1")
	if err != nil {
		return nil, err
	}
	points := grid(mods, []float64{0.45}, []int{1}, 80)
	res, err := o.measurePoints("fig8", points)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		err := rowPairs(res, p, func(nom, at characterize.RowMeasurement) {
			t.AddRow(p.mod.Info.ID, nom.LogicalRow, nom.NRH, float64(at.NRH)/float64(nom.NRH))
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig9 measures normalized BER vs restoration latency per manufacturer.
func Fig9(o CharOptions) (*Table, error) {
	return mfrBoxes(o, &Table{
		ID:      "fig9",
		Title:   "RowHammer BER vs charge restoration latency, per manufacturer (paper Fig. 9)",
		Columns: append([]string{"mfr", "factor"}, boxCols...),
	}, []int{1}, func(_, ber []float64) []float64 { return ber })
}

// Fig10 repeats the NRH and BER sweeps at 50, 65 and 80 C.
func Fig10(o CharOptions) (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "NRH and BER vs latency at three temperatures (paper Fig. 10)",
		Columns: append([]string{"mfr", "metric", "tempC", "factor"}, boxCols...),
	}
	// One representative module per manufacturer keeps the 3x sweep
	// fast; pass Modules to widen.
	mods, err := o.modules("H5", "M2", "S6")
	if err != nil {
		return nil, err
	}
	points := grid(mods, chips.Factors[:], []int{1}, 50, 65, 80)
	res, err := o.measurePoints("fig10", points)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		nrh, ber, err := normalizedPerRow(res, p)
		if err != nil {
			return nil, err
		}
		mfr := string(p.mod.Info.Mfr)
		if len(nrh) > 0 {
			addBox(t, []interface{}{mfr, "NRH", p.temp, p.factor}, stats.Summarize(nrh))
		}
		if len(ber) > 0 {
			addBox(t, []interface{}{mfr, "BER", p.temp, p.factor}, stats.Summarize(ber))
		}
	}
	return t, nil
}

// Fig11 measures NRH under 1-5 consecutive partial restorations.
func Fig11(o CharOptions) (*Table, error) {
	return mfrBoxes(o, &Table{
		ID:      "fig11",
		Title:   "NRH vs repeated partial charge restoration (paper Fig. 11)",
		Columns: append([]string{"mfr", "factor", "restorations"}, boxCols...),
	}, []int{1, 2, 3, 4, 5}, func(nrh, _ []float64) []float64 { return nrh })
}

// fig12Restores is the paper's sweep of consecutive restorations.
var fig12Restores = []int{1, 10, 100, 1000, 2500, 5000, 7500, 10000, 12500, 15000}

// Fig12 scales repeated partial restoration to 15K at 0.36 tRAS on the
// paper's three representative modules (H7, M2, S6).
func Fig12(o CharOptions) (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "NRH at 0.36 tRAS vs up to 15K consecutive partial restorations (paper Fig. 12)",
		Columns: append([]string{"module", "restorations"}, boxCols...),
	}
	mods, err := o.modules("H7", "M2", "S6")
	if err != nil {
		return nil, err
	}
	points := grid(mods, []float64{0.36}, fig12Restores, 80)
	res, err := o.measurePoints("fig12", points)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		nrh, _, err := normalizedPerRow(res, p)
		if err != nil {
			return nil, err
		}
		if len(nrh) > 0 {
			addBox(t, []interface{}{p.mod.Info.ID, p.npr}, stats.Summarize(nrh))
		}
	}
	return t, nil
}

// Fig13 measures the percentage of rows with Half-Double bitflips vs
// restoration latency (two H and two S modules, as in the paper).
func Fig13(o CharOptions) (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Rows with Half-Double bitflips vs preventive-refresh latency (paper Fig. 13)",
		Columns: []string{"module", "factor", "restorations", "rowsTested", "rowsFlipped", "percent"},
	}
	mods, err := o.modules("H7", "H8", "S6", "S7")
	if err != nil {
		return nil, err
	}
	var points []hdPoint
	for _, m := range mods {
		for _, f := range chips.Factors {
			for npr := 1; npr <= 5; npr++ {
				points = append(points, hdPoint{m, f, npr})
			}
		}
	}
	res, err := runCells(o, "fig13", points)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		r, err := res.at(p)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.mod.Info.ID, p.factor, p.npr, r.RowsTested, r.RowsFlipped, r.PercentFlipped())
	}
	return t, nil
}

// fig14Waits are the paper's tested data-retention times (ms).
var fig14Waits = []float64{64, 96, 128, 256, 512, 1024}

// Fig14 measures the fraction of rows with data-retention failures.
func Fig14(o CharOptions) (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "Rows with data-retention failures under partial restoration (paper Fig. 14)",
		Columns: []string{"mfr", "module", "factor", "restores", "waitMs", "failFraction"},
	}
	// The paper tests 2 H, 1 M and 4 S modules.
	mods, err := o.modules("H4", "H7", "M2", "S1", "S6", "S8", "S9")
	if err != nil {
		return nil, err
	}
	var points []retPoint
	for _, m := range mods {
		for _, f := range []float64{1.0, 0.81, 0.64, 0.45, 0.36, 0.27} {
			for _, restores := range []int{1, 10} {
				for _, wait := range fig14Waits {
					points = append(points, retPoint{m, f, restores, wait})
				}
			}
		}
	}
	res, err := runCells(o, "fig14", points)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		r, err := res.at(p)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(p.mod.Info.Mfr), p.mod.Info.ID, p.factor, p.restores, p.waitMs, r.FailFraction())
	}
	return t, nil
}

// Fig4 regenerates the motivational trade-off: preventive-refresh
// latency, NRH, refresh count, total time and total energy vs tRAS for
// modules from Mfrs. H and S (the paper plots H5-class and S6-class
// modules).
func Fig4(o CharOptions) (*Table, error) {
	t := &Table{
		ID:    "fig4",
		Title: "Time and energy spent on preventive refreshes vs tRAS (paper Fig. 4)",
		Columns: []string{"module", "factor", "prevRefLatency", "nrhRatio",
			"prevRefCount", "totalTime", "totalEnergy"},
	}
	mods, err := o.modules("H5", "S6")
	if err != nil {
		return nil, err
	}
	res, err := o.measurePoints("fig4", grid(mods, chips.Factors[:], []int{1}, 80))
	if err != nil {
		return nil, err
	}
	tm := ddr.DDR4()
	nomLatency := tm.TRAS + tm.TRP
	for _, m := range mods {
		nomRes, err := res.at(charPoint{m, 1.0, 1, 80})
		if err != nil {
			return nil, err
		}
		if nomLowest, any := nomRes.LowestNRH(); !any || nomLowest == 0 {
			continue
		}
		for _, f := range chips.Factors {
			_, ratio, any, err := lowestNRH(res, charPoint{m, f, 1, 80})
			if err != nil {
				return nil, err
			}
			if !any {
				continue
			}
			latency := (f*tm.TRAS + tm.TRP) / nomLatency
			if ratio == 0 {
				t.AddRow(m.Info.ID, f, latency, 0.0, "inf", "inf", "inf")
				continue
			}
			count := 1 / ratio
			totalTime := count * latency
			// Energy per refresh ~ base + restoration-time term.
			e := energy.Default()
			ePerRef := (e.ActPreBaseNJ + e.RestorePerNsNJ*f*tm.TRAS) / (e.ActPreBaseNJ + e.RestorePerNsNJ*tm.TRAS)
			t.AddRow(m.Info.ID, f, latency, ratio, count, totalTime, count*ePerRef)
		}
	}
	return t, nil
}

// Table3 regenerates the per-module lowest-NRH table, measured side by
// side with the published values.
func Table3(o CharOptions) (*Table, error) {
	t := &Table{
		ID:    "table3",
		Title: "Lowest observed NRH per module per restoration latency (paper Table 3)",
		Columns: []string{"module", "factor", "measuredNRH", "measuredRatio",
			"publishedRatio", "absErr"},
	}
	mods, err := o.modules()
	if err != nil {
		return nil, err
	}
	res, err := o.measurePoints("table3", grid(withBitflips(mods), chips.Factors[:], []int{1}, 80))
	if err != nil {
		return nil, err
	}
	for _, m := range mods {
		if m.NoBitflips {
			t.AddRow(m.Info.ID, 1.0, "no bitflips", "-", "-", "-")
			continue
		}
		for i, f := range chips.Factors {
			lowest, ratio, any, err := lowestNRH(res, charPoint{m, f, 1, 80})
			if err != nil {
				return nil, err
			}
			if any {
				t.AddRow(m.Info.ID, f, lowest, ratio, m.NRHRatio[i], math.Abs(ratio-m.NRHRatio[i]))
			}
		}
	}
	return t, nil
}

// Profiling regenerates the §10 profiling-cost analysis.
func Profiling() *Table {
	p := characterize.PaperProfilingPlan()
	t := &Table{
		ID:      "profiling",
		Title:   "PaCRAM profiling cost (paper §10)",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("sweep points per row", p.TRASValues*p.RestoreCounts*p.HammerCounts*p.Iterations)
	t.AddRow("window seconds (per 1270-row batch)", p.WindowSeconds())
	t.AddRow("throughput (KB/s)", p.ThroughputKBs())
	t.AddRow("64K-row bank (minutes)", p.BankMinutes(64*1024))
	t.AddRow("data blocked at a time (MB)", p.BlockedMB())
	return t
}

// Table4 derives the PaCRAM configuration parameters per module per
// latency (scaled NRH, NPCR, tFCRI), mirroring Appendix C Table 4.
func Table4(mitigationNRH int) (*Table, error) {
	t := &Table{
		ID:    "table4",
		Title: fmt.Sprintf("PaCRAM configuration per module (paper Table 4), mitigation NRH=%d", mitigationNRH),
		Columns: []string{"module", "factor", "nrhScale", "scaledNRH", "NPCR",
			"tFCRI", "alwaysPartial"},
	}
	tm := ddr.DDR4()
	for _, m := range chips.Registry() {
		for idx := 1; idx < len(chips.Factors); idx++ {
			cfg, err := pacram.Derive(m, idx, mitigationNRH, tm)
			if err != nil {
				t.AddRow(m.Info.ID, chips.Factors[idx], "N/A", "-", "-", "-", "-")
				continue
			}
			tfcri := "inf"
			if !math.IsInf(cfg.TFCRINs, 1) {
				tfcri = fmt.Sprintf("%.3gms", cfg.TFCRINs/1e6)
			}
			t.AddRow(m.Info.ID, cfg.Factor, cfg.NRHScale, cfg.ScaledNRH(mitigationNRH),
				cfg.NPCR, tfcri, fmt.Sprintf("%v", cfg.AlwaysPartial()))
		}
	}
	return t, nil
}
