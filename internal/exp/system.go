package exp

import (
	"fmt"
	"io"

	"pacram/internal/chips"
	pacram "pacram/internal/core"
	"pacram/internal/memsys"
	"pacram/internal/mitigation"
	"pacram/internal/runner"
	"pacram/internal/sim"
	"pacram/internal/trace"
)

// SysOptions scales the system-level experiments: Fig. 16 and RunTable
// here, and Figs. 3 and 17-19, which run as scenario specs rescaled by
// scenario.FigureSpec.
// Defaults trade the paper's 62 workloads x 100M instructions for a
// representative subset at simulator-test scale; raise for fidelity.
type SysOptions struct {
	// Workloads are single-core workload names (empty = representative
	// six spanning the intensity classes).
	Workloads []string
	// MixCount is how many of the 60 4-core mixes to run.
	MixCount int
	// Instructions/Warmup per core.
	Instructions, Warmup uint64
	// NRHs are the simulated RowHammer thresholds (paper: 1K..32).
	NRHs []int
	// Mitigations to evaluate (empty = all five).
	Mitigations []string
	Seed        uint64
	// Channels/Ranks override the simulated memory geometry (0 keeps
	// the paper defaults: 1 channel, 2 ranks per channel). Each
	// channel runs its own controller and mitigation instance; see
	// memsys.System.
	Channels, Ranks int

	// Parallel bounds the runner's worker pool (0 = all CPUs).
	// Results are bit-identical at any worker count.
	Parallel int
	// CacheDir, when non-empty, persists per-cell results as JSON so
	// repeated runs at the same scale skip finished cells.
	CacheDir string
	// StoreURL, when non-empty, adds a remote result-store tier (a
	// pacramd cache origin) behind the disk tier; see runner.OpenStore.
	StoreURL string
	// Progress, when non-nil, receives streaming progress and ETA
	// (typically os.Stderr).
	Progress io.Writer
}

// DefaultSysOptions returns the fast default scale.
func DefaultSysOptions() SysOptions {
	return SysOptions{
		Workloads:    []string{"429.mcf", "470.lbm", "ycsb-a", "483.xalancbmk", "456.hmmer", "453.povray"},
		MixCount:     3,
		Instructions: 60_000,
		Warmup:       6_000,
		NRHs:         []int{1024, 256, 64},
		Seed:         0x51317,
	}
}

// MemCfg returns the experiments' memory configuration: the scaled
// paper system with the geometry overrides applied.
func (o SysOptions) MemCfg() memsys.Config {
	cfg := sim.SmallMemConfig()
	if o.Channels != 0 {
		cfg.Geometry.Channels = o.Channels
	}
	if o.Ranks != 0 {
		cfg.Geometry.Ranks = o.Ranks
	}
	return cfg
}

func (o SysOptions) mitigations() []string {
	if len(o.Mitigations) == 0 {
		return mitigation.AllNames()
	}
	return o.Mitigations
}

func (o SysOptions) specs() ([]trace.Spec, error) {
	specs := make([]trace.Spec, 0, len(o.Workloads))
	for _, name := range o.Workloads {
		s, err := trace.SpecByName(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// simRun executes one simulation cell. During the planning pass it
// records the cell in the job matrix and returns a placeholder; during
// the assembly pass it returns the cell's computed (or cached) result.
type simRun func(key string, workloads []trace.Spec, mech string, nrh int,
	cfg *pacram.Config) (sim.Result, error)

// runnerOptions maps experiment options onto the engine. The
// fingerprint carries every knob outside the job keys that changes
// simulation results, so cached cells are never reused across scales
// or seeds.
func (o SysOptions) runnerOptions(label string) (runner.Options, error) {
	// The fingerprint carries the effective geometry, not the raw
	// overrides: -channels 1 and the implicit default must share cache
	// entries (their simulations are identical).
	g := o.MemCfg().Geometry
	return runner.Options{
		Workers: o.Parallel,
		Seed:    o.Seed,
		Fingerprint: fmt.Sprintf("sim:v2:insts=%d:warmup=%d:seed=%d:ch=%d:rk=%d",
			o.Instructions, o.Warmup, o.Seed, g.Channels, g.Ranks),
		Progress: o.Progress,
		Label:    label,
	}.WithStore(o.CacheDir, o.StoreURL)
}

// sweep drives a figure builder through the runner in two passes: a
// planning pass over a scratch table that records every requested cell
// in the job matrix (deduplicated — baselines are requested many
// times), one parallel runner execution, and an assembly pass that
// re-runs the builder against the real results. The builder must
// request the same cells in both passes, i.e. it may branch on its
// options but not on result values; a cell requested only at assembly
// time is reported as an internal error rather than silently recomputed.
func (o SysOptions) sweep(t *Table, label string, build func(*Table, simRun) error) error {
	m := runner.NewMatrix[sim.Result]()
	plan := func(key string, workloads []trace.Spec, mech string, nrh int,
		cfg *pacram.Config) (sim.Result, error) {
		w := append([]trace.Spec(nil), workloads...)
		m.Add(key, func(runner.Ctx) (sim.Result, error) {
			opt := sim.DefaultOptions(w...)
			opt.MemCfg = o.MemCfg()
			opt.Instructions = o.Instructions
			opt.Warmup = o.Warmup
			opt.Mitigation = mech
			opt.NRH = nrh
			opt.PaCRAM = cfg
			// All cells share the experiment seed: paired cells (a
			// baseline and its treatments) must see identical random
			// workload streams for normalization to be meaningful.
			opt.Seed = o.Seed
			res, err := sim.Run(opt)
			if err != nil {
				return sim.Result{}, fmt.Errorf("exp: %s: %w", key, err)
			}
			return res, nil
		})
		return plannedResult(len(workloads)), nil
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
	get := func(key string, _ []trace.Spec, _ string, _ int,
		_ *pacram.Config) (sim.Result, error) {
		res, ok := results[key]
		if !ok {
			return sim.Result{}, fmt.Errorf("exp: internal: cell %q not planned", key)
		}
		return res, nil
	}
	return build(t, get)
}

// plannedResult is the placeholder the planning pass hands back:
// shaped like a real result (unit IPC, nonzero counters) so the
// normalization arithmetic in builders cannot divide by zero while
// planning. Placeholder values never reach the real table — the
// planning pass writes to a scratch table that is discarded.
func plannedResult(cores int) sim.Result {
	ipc := make([]float64, cores)
	for i := range ipc {
		ipc[i] = 1
	}
	res := sim.Result{IPC: ipc, Cycles: 1}
	res.Stats.ReadCount = 1
	res.Stats.ReadLatencySum = 1
	res.Energy.Background = 1
	return res
}

// PaCRAMConfigs holds the three per-manufacturer operating points the
// paper evaluates (PaCRAM-H/M/S: modules H5, M2, S6 at their
// best-observed latencies 0.36, 0.18 and 0.45 tRAS, §9.2).
type PaCRAMConfigs struct {
	Names   []string
	Modules []string
	Factors []int // factor indices into chips.Factors
}

// PaperPaCRAMConfigs returns the §9.1 configuration set.
func PaperPaCRAMConfigs() PaCRAMConfigs {
	return PaCRAMConfigs{
		Names:   []string{"PaCRAM-H", "PaCRAM-M", "PaCRAM-S"},
		Modules: []string{"H5", "M2", "S6"},
		Factors: []int{4, 6, 3}, // 0.36, 0.18, 0.45
	}
}

func deriveConfig(moduleID string, factorIdx, nrh int) (*pacram.Config, error) {
	m, err := chips.ByID(moduleID)
	if err != nil {
		return nil, err
	}
	cfg, err := pacram.Derive(m, factorIdx, nrh, sim.SmallMemConfig().Timing)
	if err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Fig16 sweeps the preventive-refresh latency for each PaCRAM
// configuration, mechanism and NRH; IPC is normalized to the same
// mechanism without PaCRAM (factor 1.0), averaged over the single-core
// workloads.
func Fig16(o SysOptions) (*Table, error) {
	t := &Table{
		ID:      "fig16",
		Title:   "Normalized IPC vs preventive-refresh latency (paper Fig. 16)",
		Columns: []string{"config", "mechanism", "NRH", "factor", "normIPC"},
	}
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	pc := PaperPaCRAMConfigs()

	err = o.sweep(t, "fig16", func(t *Table, run simRun) error {
		for ci, name := range pc.Names {
			for _, mech := range o.mitigations() {
				for _, nrh := range o.NRHs {
					// Baseline: mechanism without PaCRAM.
					base := 0.0
					for _, spec := range specs {
						key := fmt.Sprintf("nopac/%s/%d/%s", mech, nrh, spec.Name)
						res, err := run(key, []trace.Spec{spec}, mech, nrh, nil)
						if err != nil {
							return err
						}
						base += res.IPC[0]
					}
					t.AddRow(name, mech, nrh, 1.0, 1.0)
					for idx := 1; idx < len(chips.Factors); idx++ {
						cfg, err := deriveConfig(pc.Modules[ci], idx, nrh)
						if err != nil {
							continue // red cell: latency unusable on this module
						}
						sum := 0.0
						for _, spec := range specs {
							key := fmt.Sprintf("fig16/%s/%s/%d/%d/%s", name, mech, nrh, idx, spec.Name)
							res, err := run(key, []trace.Spec{spec}, mech, nrh, cfg)
							if err != nil {
								return err
							}
							sum += res.IPC[0]
						}
						t.AddRow(name, mech, nrh, chips.Factors[idx], sum/base)
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

// RunTable is the detailed single-run report: per workload and
// mechanism, the raw controller statistics behind the figures. Useful
// for exploring configurations outside the paper's sweeps.
func RunTable(o SysOptions) (*Table, error) {
	t := &Table{
		ID:    "run",
		Title: "Detailed per-workload simulation statistics",
		Columns: []string{"workload", "mechanism", "NRH", "IPC", "normIPC",
			"prevBusyPct", "avgReadLat", "acts", "vrrs", "rfms", "energyUJ"},
	}
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	err = o.sweep(t, "run", func(t *Table, run simRun) error {
		for _, spec := range specs {
			base, err := run("run-base/"+spec.Name, []trace.Spec{spec}, "None", 1024, nil)
			if err != nil {
				return err
			}
			t.AddRow(spec.Name, "None", "-", base.IPC[0], 1.0,
				100*base.PrevRefBusyFraction, base.Stats.AvgReadLatency(),
				base.Stats.Acts, base.Stats.VRRs, base.Stats.RFMs, base.Energy.Total()*1e6)
			for _, mech := range o.mitigations() {
				for _, nrh := range o.NRHs {
					key := fmt.Sprintf("run/%s/%s/%d", spec.Name, mech, nrh)
					res, err := run(key, []trace.Spec{spec}, mech, nrh, nil)
					if err != nil {
						return err
					}
					t.AddRow(spec.Name, mech, nrh, res.IPC[0], res.IPC[0]/base.IPC[0],
						100*res.PrevRefBusyFraction, res.Stats.AvgReadLatency(),
						res.Stats.Acts, res.Stats.VRRs, res.Stats.RFMs, res.Energy.Total()*1e6)
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

// AreaReport summarizes PaCRAM's §8.4 hardware cost.
func AreaReport() *Table {
	t := &Table{
		ID:      "area",
		Title:   "PaCRAM metadata area and latency (paper §8.4)",
		Columns: []string{"metric", "value"},
	}
	const banks, rows = 32, 65536
	area := pacram.AreaMM2(banks, rows)
	t.AddRow("configuration", fmt.Sprintf("2 ranks x 16 banks, %d rows/bank", rows))
	t.AddRow("storage per bank (bytes)", pacram.StorageBytes(1, rows))
	t.AddRow("area per bank (mm2)", pacram.AreaMM2(1, rows))
	t.AddRow("total area (mm2)", area)
	t.AddRow("Xeon die overhead (%)", pacram.XeonOverheadPercent(area))
	t.AddRow("memory controller overhead (%)", pacram.MemCtrlOverheadPercent(area))
	t.AddRow("SRAM access latency (ns)", pacram.AccessLatencyNs)
	return t
}
