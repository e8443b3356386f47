package exp

import (
	"fmt"

	pacram "pacram/internal/core"
)

// SysOptions scales the system-level experiments: Figs. 3 and 16-19
// and the per-workload run table, which run as scenario specs rescaled
// by scenario.FigureSpec. Takeaways T7/T8 and the C2 artifact claims
// read Figs. 17 and 18 at this scale (scenario.ClaimFigures). How a
// spec executes (workers, cache, progress) is scenario.RunOptions.
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
