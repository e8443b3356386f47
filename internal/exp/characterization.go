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
	// CacheDir, when non-empty, persists per-sweep-point results as
	// JSON so repeated runs at the same scale skip finished points.
	CacheDir string
	// Progress, when non-nil, receives streaming progress and ETA
	// (typically os.Stderr).
	Progress io.Writer
}

// DefaultCharOptions returns the fast default scale.
func DefaultCharOptions() CharOptions {
	return CharOptions{Rows: 24, BankRows: 128, Iterations: 1, Seed: 0x9ac24a}
}

// runnerOptions maps characterization options onto the engine; the
// fingerprint covers every scale knob outside the job keys.
func (o CharOptions) runnerOptions(label string) (runner.Options, error) {
	return runner.Options{
		Workers: o.Parallel,
		Seed:    o.Seed,
		Fingerprint: fmt.Sprintf("char:v1:rows=%d:bank=%d:iters=%d:seed=%d",
			o.Rows, o.BankRows, o.Iterations, o.Seed),
		Progress: o.Progress,
		Label:    label,
	}.WithStore(o.CacheDir, "")
}

// charRun measures one module at one (factor, npr, temperature) sweep
// point. During the planning pass it records the point in the job
// matrix and returns a placeholder; during assembly it returns the
// computed (or cached) measurement. Each job builds its own platform,
// and the device model is closed-form per row, so a point measured in
// isolation is bit-identical to one measured mid-sequence — which is
// what makes the fan-out safe.
type charRun func(m *chips.ModuleData, factor float64, npr int, temp float64) (characterize.ModuleResult, error)

// sweep drives a characterization figure builder through the runner in
// two passes: plan into a scratch table, execute the matrix, assemble
// into t. Builders must request the same sweep points in both passes
// (branch on options, not on results).
func (o CharOptions) sweep(t *Table, label string, build func(*Table, charRun) error) error {
	m := runner.NewMatrix[characterize.ModuleResult]()
	plan := func(mod *chips.ModuleData, factor float64, npr int, temp float64) (characterize.ModuleResult, error) {
		key := charKey(mod.Info.ID, factor, npr, temp)
		m.Add(key, func(runner.Ctx) (characterize.ModuleResult, error) {
			res, err := characterize.MeasureModule(mod, o.deviceOptions(), factor, npr, temp, o.Rows, o.config())
			if err != nil {
				return characterize.ModuleResult{}, fmt.Errorf("exp: %s: %w", key, err)
			}
			return res, nil
		})
		return plannedModuleResult(mod, factor, npr, temp), nil
	}
	var scratch Table
	if err := build(&scratch, plan); err != nil {
		return err
	}
	ropt, err := o.runnerOptions(label)
	if err != nil {
		return err
	}
	results, err := runner.Run(ropt, m.Jobs())
	if err != nil {
		return err
	}
	get := func(mod *chips.ModuleData, factor float64, npr int, temp float64) (characterize.ModuleResult, error) {
		res, ok := results[charKey(mod.Info.ID, factor, npr, temp)]
		if !ok {
			return characterize.ModuleResult{}, fmt.Errorf("exp: internal: point %s not planned",
				charKey(mod.Info.ID, factor, npr, temp))
		}
		return res, nil
	}
	return build(t, get)
}

// serialCharRun returns a charRun that measures immediately, without
// planning or pooling — for drivers like Takeaways that interleave a
// handful of measurements with narrative assembly.
func (o CharOptions) serialCharRun() charRun {
	return func(m *chips.ModuleData, factor float64, npr int, temp float64) (characterize.ModuleResult, error) {
		return characterize.MeasureModule(m, o.deviceOptions(), factor, npr, temp, o.Rows, o.config())
	}
}

func charKey(moduleID string, factor float64, npr int, temp float64) string {
	return fmt.Sprintf("char/%s/f%.4f/npr%d/t%g", moduleID, factor, npr, temp)
}

// plannedModuleResult is the planning-pass placeholder: one synthetic
// row with bitflips so that LowestNRH and per-row normalization take
// the same code paths they will at assembly time (the placeholder
// never reaches the real table).
func plannedModuleResult(mod *chips.ModuleData, factor float64, npr int, temp float64) characterize.ModuleResult {
	return characterize.ModuleResult{
		ModuleID: mod.Info.ID,
		Mfr:      mod.Info.Mfr,
		Factor:   factor,
		NPR:      npr,
		TempC:    temp,
		Rows:     []characterize.RowMeasurement{{LogicalRow: 0, NRH: 1, BER: 1}},
	}
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

func (o CharOptions) modules(defaults ...string) ([]*chips.ModuleData, error) {
	ids := o.Modules
	if len(ids) == 0 {
		ids = defaults
	}
	if len(ids) == 0 {
		return chips.Registry(), nil
	}
	out := make([]*chips.ModuleData, 0, len(ids))
	for _, id := range ids {
		m, err := chips.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// moduleSweep measures one module at (factor, npr, temp), returning
// per-row measurements keyed by logical row.
func moduleSweep(run charRun, m *chips.ModuleData, factor float64, npr int, temp float64) (map[int]characterize.RowMeasurement, error) {
	res, err := run(m, factor, npr, temp)
	if err != nil {
		return nil, err
	}
	out := make(map[int]characterize.RowMeasurement, len(res.Rows))
	for _, r := range res.Rows {
		out[r.LogicalRow] = r
	}
	return out, nil
}

// normalizedPerRow returns per-row NRH and BER at factor normalized to
// the same row's nominal values (rows with nominal NoBitflips are
// skipped; NRH ratio 0 encodes retention failures).
func normalizedPerRow(run charRun, m *chips.ModuleData, factor float64, npr int, temp float64) (nrhRatios, berRatios []float64, err error) {
	nom, err := run(m, 1.0, 1, temp)
	if err != nil {
		return nil, nil, err
	}
	red, err := moduleSweep(run, m, factor, npr, temp)
	if err != nil {
		return nil, nil, err
	}
	for _, n := range nom.Rows {
		r, ok := red[n.LogicalRow]
		if !ok || n.NoBitflips || n.NRH == 0 {
			continue
		}
		nrhRatios = append(nrhRatios, float64(r.NRH)/float64(n.NRH))
		if n.BER > 0 {
			berRatios = append(berRatios, r.BER/n.BER)
		}
	}
	return nrhRatios, berRatios, nil
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
	t := &Table{
		ID:      "fig6",
		Title:   "NRH vs charge restoration latency, per manufacturer (paper Fig. 6)",
		Columns: append([]string{"mfr", "factor"}, boxCols...),
	}
	mods, err := o.modules()
	if err != nil {
		return nil, err
	}
	err = o.sweep(t, "fig6", func(t *Table, run charRun) error {
		for _, mfr := range chips.Mfrs() {
			for _, f := range chips.Factors {
				var all []float64
				for _, m := range mods {
					if m.Info.Mfr != mfr || m.NoBitflips {
						continue
					}
					nrh, _, err := normalizedPerRow(run, m, f, 1, 80)
					if err != nil {
						return err
					}
					all = append(all, nrh...)
				}
				if len(all) == 0 {
					continue
				}
				addBox(t, []interface{}{string(mfr), f}, stats.Summarize(all))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
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
	err = o.sweep(t, "fig7", func(t *Table, run charRun) error {
		for _, m := range mods {
			if m.NoBitflips {
				continue
			}
			var nomLowest int
			for i, f := range chips.Factors {
				res, err := run(m, f, 1, 80)
				if err != nil {
					return err
				}
				lowest, any := res.LowestNRH()
				if !any {
					continue
				}
				if i == 0 {
					nomLowest = lowest
				}
				norm := 0.0
				if nomLowest > 0 {
					norm = float64(lowest) / float64(nomLowest)
				}
				t.AddRow(string(m.Info.Mfr), m.Info.ID, f, lowest, norm)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
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
	err = o.sweep(t, "fig8", func(t *Table, run charRun) error {
		for _, m := range mods {
			nom, err := run(m, 1.0, 1, 80)
			if err != nil {
				return err
			}
			red, err := moduleSweep(run, m, 0.45, 1, 80)
			if err != nil {
				return err
			}
			for _, n := range nom.Rows {
				r, ok := red[n.LogicalRow]
				if !ok || n.NoBitflips || n.NRH == 0 {
					continue
				}
				t.AddRow(m.Info.ID, n.LogicalRow, n.NRH, float64(r.NRH)/float64(n.NRH))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig9 measures normalized BER vs restoration latency per manufacturer.
func Fig9(o CharOptions) (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "RowHammer BER vs charge restoration latency, per manufacturer (paper Fig. 9)",
		Columns: append([]string{"mfr", "factor"}, boxCols...),
	}
	mods, err := o.modules()
	if err != nil {
		return nil, err
	}
	err = o.sweep(t, "fig9", func(t *Table, run charRun) error {
		for _, mfr := range chips.Mfrs() {
			for _, f := range chips.Factors {
				var all []float64
				for _, m := range mods {
					if m.Info.Mfr != mfr || m.NoBitflips {
						continue
					}
					_, ber, err := normalizedPerRow(run, m, f, 1, 80)
					if err != nil {
						return err
					}
					all = append(all, ber...)
				}
				if len(all) == 0 {
					continue
				}
				addBox(t, []interface{}{string(mfr), f}, stats.Summarize(all))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
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
	err = o.sweep(t, "fig10", func(t *Table, run charRun) error {
		for _, m := range mods {
			for _, temp := range []float64{50, 65, 80} {
				for _, f := range chips.Factors {
					nrh, ber, err := normalizedPerRow(run, m, f, 1, temp)
					if err != nil {
						return err
					}
					if len(nrh) > 0 {
						addBox(t, []interface{}{string(m.Info.Mfr), "NRH", temp, f}, stats.Summarize(nrh))
					}
					if len(ber) > 0 {
						addBox(t, []interface{}{string(m.Info.Mfr), "BER", temp, f}, stats.Summarize(ber))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig11 measures NRH under 1-5 consecutive partial restorations.
func Fig11(o CharOptions) (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "NRH vs repeated partial charge restoration (paper Fig. 11)",
		Columns: append([]string{"mfr", "factor", "restorations"}, boxCols...),
	}
	mods, err := o.modules()
	if err != nil {
		return nil, err
	}
	err = o.sweep(t, "fig11", func(t *Table, run charRun) error {
		for _, mfr := range chips.Mfrs() {
			for _, f := range chips.Factors {
				for npr := 1; npr <= 5; npr++ {
					var all []float64
					for _, m := range mods {
						if m.Info.Mfr != mfr || m.NoBitflips {
							continue
						}
						nrh, _, err := normalizedPerRow(run, m, f, npr, 80)
						if err != nil {
							return err
						}
						all = append(all, nrh...)
					}
					if len(all) == 0 {
						continue
					}
					addBox(t, []interface{}{string(mfr), f, npr}, stats.Summarize(all))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
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
	err = o.sweep(t, "fig12", func(t *Table, run charRun) error {
		for _, m := range mods {
			for _, npr := range fig12Restores {
				nrh, _, err := normalizedPerRow(run, m, 0.36, npr, 80)
				if err != nil {
					return err
				}
				if len(nrh) == 0 {
					continue
				}
				addBox(t, []interface{}{m.Info.ID, npr}, stats.Summarize(nrh))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
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
	hd := characterize.DefaultHalfDoubleConfig()
	cfg := o.config()

	// Half-Double points carry their own result type, so Fig13 plans
	// its matrix directly: one job per (module, factor, npr), each
	// building its own platform (measurements are closed-form per row,
	// so an isolated platform reproduces the shared-platform results).
	key := func(m *chips.ModuleData, f float64, npr int) string {
		return fmt.Sprintf("fig13/%s/f%.4f/npr%d", m.Info.ID, f, npr)
	}
	m13 := runner.NewMatrix[characterize.HalfDoubleResult]()
	for _, m := range mods {
		for _, f := range chips.Factors {
			for npr := 1; npr <= 5; npr++ {
				m13.Add(key(m, f, npr), func(runner.Ctx) (characterize.HalfDoubleResult, error) {
					pl, err := bender.New(m.NewChip(o.deviceOptions()), o.Seed)
					if err != nil {
						return characterize.HalfDoubleResult{}, err
					}
					pl.SetTemperature(80)
					rows := characterize.SelectRows(pl, o.Rows)
					return characterize.MeasureHalfDoubleModule(pl, m.Info.ID, rows, f, npr, hd, cfg)
				})
			}
		}
	}
	ropt, err := o.runnerOptions("fig13")
	if err != nil {
		return nil, err
	}
	results, err := runner.Run(ropt, m13.Jobs())
	if err != nil {
		return nil, err
	}
	for _, m := range mods {
		for _, f := range chips.Factors {
			for npr := 1; npr <= 5; npr++ {
				res, ok := results[key(m, f, npr)]
				if !ok {
					return nil, fmt.Errorf("exp: internal: cell %q not planned", key(m, f, npr))
				}
				t.AddRow(m.Info.ID, f, npr, res.RowsTested, res.RowsFlipped, res.PercentFlipped())
			}
		}
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
	fig14Factors := []float64{1.0, 0.81, 0.64, 0.45, 0.36, 0.27}
	fig14Restores := []int{1, 10}

	// Like Fig13: a dedicated matrix over (module, factor, restores,
	// wait) with one platform per job.
	key := func(m *chips.ModuleData, f float64, restores int, wait float64) string {
		return fmt.Sprintf("fig14/%s/f%.4f/r%d/w%g", m.Info.ID, f, restores, wait)
	}
	m14 := runner.NewMatrix[characterize.RetentionResult]()
	for _, m := range mods {
		for _, f := range fig14Factors {
			for _, restores := range fig14Restores {
				for _, wait := range fig14Waits {
					m14.Add(key(m, f, restores, wait), func(runner.Ctx) (characterize.RetentionResult, error) {
						pl, err := bender.New(m.NewChip(o.deviceOptions()), o.Seed)
						if err != nil {
							return characterize.RetentionResult{}, err
						}
						pl.SetTemperature(80)
						rows := characterize.SelectRows(pl, o.Rows)
						return characterize.MeasureRetentionModule(pl, m.Info.ID, rows, f, restores, wait)
					})
				}
			}
		}
	}
	ropt, err := o.runnerOptions("fig14")
	if err != nil {
		return nil, err
	}
	results, err := runner.Run(ropt, m14.Jobs())
	if err != nil {
		return nil, err
	}
	for _, m := range mods {
		for _, f := range fig14Factors {
			for _, restores := range fig14Restores {
				for _, wait := range fig14Waits {
					res, ok := results[key(m, f, restores, wait)]
					if !ok {
						return nil, fmt.Errorf("exp: internal: cell %q not planned", key(m, f, restores, wait))
					}
					t.AddRow(string(m.Info.Mfr), m.Info.ID, f, restores, wait, res.FailFraction())
				}
			}
		}
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
	tm := ddr.DDR4()
	err = o.sweep(t, "fig4", func(t *Table, run charRun) error {
		for _, m := range mods {
			// Nominal lowest NRH.
			nomRes, err := run(m, 1.0, 1, 80)
			if err != nil {
				return err
			}
			nomLowest, any := nomRes.LowestNRH()
			if !any || nomLowest == 0 {
				continue
			}
			nomLatency := tm.TRAS + tm.TRP
			for _, f := range chips.Factors {
				res, err := run(m, f, 1, 80)
				if err != nil {
					return err
				}
				lowest, any := res.LowestNRH()
				if !any {
					continue
				}
				latency := (f*tm.TRAS + tm.TRP) / nomLatency
				ratio := float64(lowest) / float64(nomLowest)
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
		return nil
	})
	if err != nil {
		return nil, err
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
	err = o.sweep(t, "table3", func(t *Table, run charRun) error {
		for _, m := range mods {
			if m.NoBitflips {
				t.AddRow(m.Info.ID, 1.0, "no bitflips", "-", "-", "-")
				continue
			}
			var nomLowest int
			for i, f := range chips.Factors {
				res, err := run(m, f, 1, 80)
				if err != nil {
					return err
				}
				lowest, any := res.LowestNRH()
				if !any {
					continue
				}
				if i == 0 {
					nomLowest = lowest
				}
				ratio := 0.0
				if nomLowest > 0 {
					ratio = float64(lowest) / float64(nomLowest)
				}
				t.AddRow(m.Info.ID, f, lowest, ratio, m.NRHRatio[i], math.Abs(ratio-m.NRHRatio[i]))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
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
