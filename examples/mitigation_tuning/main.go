// Mitigation tuning: compares the five RowHammer mitigation mechanisms
// on one workload mix across RowHammer thresholds, then shows what
// each gains from PaCRAM at its module's best operating point — the
// §9.2 trade-off analysis in miniature.
//
// The full (mechanism x NRH x PaCRAM point) matrix runs through the
// internal/runner worker pool; every cell shares the same seed, so the
// comparisons are paired and the output is identical at any -parallel
// value.
//
// Run with: go run ./examples/mitigation_tuning [-parallel N]
package main

import (
	"flag"
	"fmt"
	"log"

	"pacram/internal/chips"
	pacram "pacram/internal/core"
	"pacram/internal/mitigation"
	"pacram/internal/runner"
	"pacram/internal/sim"
	"pacram/internal/stats"
	"pacram/internal/trace"
)

var nrhs = []int{1024, 256, 64}

// points are the per-manufacturer best operating configurations.
var points = []struct {
	name   string
	module string
	idx    int
}{
	{"PaCRAM-H (H5 @0.36)", "H5", 4},
	{"PaCRAM-M (M2 @0.18)", "M2", 6},
	{"PaCRAM-S (S6 @0.45)", "S6", 3},
}

func main() {
	parallel := flag.Int("parallel", 0, "worker pool size (0 = all CPUs); results are identical at any value")
	flag.Parse()

	mix := trace.Mixes()[2]
	fmt.Printf("workload mix %s: %s / %s / %s / %s\n\n", mix.Name,
		mix.Specs[0].Name, mix.Specs[1].Name, mix.Specs[2].Name, mix.Specs[3].Name)

	// Plan the full job matrix: the no-mitigation baseline, every
	// (mechanism, NRH) cell, and every (mechanism, PaCRAM point) cell
	// at NRH=64. Cell keys name the results used during assembly.
	m := runner.NewMatrix[sim.Result]()
	add := func(mech string, nrh int, pacName string, cfg *pacram.Config) string {
		key := fmt.Sprintf("tune/%s/%d/%s", mech, nrh, pacName)
		m.Add(key, func(runner.Ctx) (sim.Result, error) {
			opt := sim.DefaultOptions(mix.Specs[:]...)
			opt.MemCfg = sim.SmallMemConfig()
			opt.Instructions = 25_000
			opt.Warmup = 2_500
			opt.Mitigation = mech
			opt.NRH = nrh
			opt.PaCRAM = cfg
			return sim.Run(opt)
		})
		return key
	}

	add("None", 1024, "-", nil)
	for _, nrh := range nrhs {
		for _, mech := range mitigation.AllNames() {
			add(mech, nrh, "-", nil)
		}
	}
	for _, mech := range mitigation.AllNames() {
		for _, pt := range points {
			mod, err := chips.ByID(pt.module)
			if err != nil {
				log.Fatal(err)
			}
			cfg, err := pacram.Derive(mod, pt.idx, 64, sim.SmallMemConfig().Timing)
			if err != nil {
				log.Fatal(err)
			}
			add(mech, 64, pt.name, &cfg)
		}
	}

	results, err := runner.Run(runner.Options{Workers: *parallel, Label: "mitigation_tuning"}, m.Jobs())
	if err != nil {
		log.Fatal(err)
	}
	get := func(mech string, nrh int, pacName string) sim.Result {
		i, _ := m.Index(fmt.Sprintf("tune/%s/%d/%s", mech, nrh, pacName))
		return results[i]
	}
	baseline := get("None", 1024, "-")

	// 1. Mechanism scaling with the RowHammer threshold.
	fmt.Println("normalized weighted speedup (vs no mitigation) & preventive-refresh busy %:")
	fmt.Printf("%-10s", "NRH")
	for _, mech := range mitigation.AllNames() {
		fmt.Printf("  %16s", mech)
	}
	fmt.Println()
	for _, nrh := range nrhs {
		fmt.Printf("%-10d", nrh)
		for _, mech := range mitigation.AllNames() {
			res := get(mech, nrh, "-")
			ws := stats.WeightedSpeedup(res.IPC, baseline.IPC) / float64(len(res.IPC))
			fmt.Printf("  %6.3f / %5.2f%%", ws, 100*res.PrevRefBusyFraction)
		}
		fmt.Println()
	}

	// 2. PaCRAM at each manufacturer's best operating point (NRH=64).
	fmt.Println("\nPaCRAM gains at NRH=64 (normalized WS, DRAM energy vs mechanism alone):")
	for _, mech := range mitigation.AllNames() {
		noPac := get(mech, 64, "-")
		fmt.Printf("  %-9s", mech)
		for _, pt := range points {
			res := get(mech, 64, pt.name)
			ws := stats.WeightedSpeedup(res.IPC, noPac.IPC) / float64(len(res.IPC))
			en := res.Energy.Total() / noPac.Energy.Total()
			fmt.Printf("  %s: %+5.2f%% perf %+5.2f%% energy",
				pt.name[:8], 100*(ws-1), 100*(en-1))
		}
		fmt.Println()
	}
}
