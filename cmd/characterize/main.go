// Command characterize runs the DRAM-chip characterization experiments
// of the paper (Figs. 4 and 6-14, Tables 1 and 3) against the modeled
// module fleet and prints the resulting tables, optionally also as CSV.
//
// Examples:
//
//	characterize -exp fig6                 # NRH vs tRAS box data, all modules
//	characterize -exp table3 -rows 96      # tighter statistics
//	characterize -exp all -csv out/        # everything, with CSV dumps
//	characterize -exp fig12 -modules H7,M2,S6
//	characterize -exp all -parallel 8 -cache .pacram-cache
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pacram/internal/exp"
	"pacram/internal/runner"
)

var experiments = []string{
	"table1", "fig4", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "table3", "profiling",
}

func main() {
	var (
		expFlag  = flag.String("exp", "fig6", "experiment id, comma-separated list, or 'all': "+strings.Join(experiments, " "))
		rows     = flag.Int("rows", 24, "rows sampled per module (paper: 3000)")
		bank     = flag.Int("bankrows", 128, "modeled rows per bank (power of two)")
		modules  = flag.String("modules", "", "comma-separated module IDs (default: experiment-specific)")
		iters    = flag.Int("iterations", 1, "measurement iterations (paper: 5)")
		seed     = flag.Uint64("seed", 0x9ac24a, "experiment seed")
		csvDir   = flag.String("csv", "", "directory to write per-experiment CSV files")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = all CPUs); results are identical at any value")
		cacheDir = flag.String("cache", "", "cache completed sweep points as JSON in this directory; re-runs skip them")
		quiet    = flag.Bool("quiet", false, "suppress progress/ETA output on stderr")
	)
	flag.Parse()

	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}

	opt := exp.DefaultCharOptions()
	opt.Rows = *rows
	opt.BankRows = *bank
	opt.Iterations = *iters
	opt.Seed = *seed
	opt.Parallel = *parallel
	store, err := runner.OpenStore(*cacheDir, "", 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "characterize: %v\n", err)
		os.Exit(1)
	}
	opt.Store = store
	opt.Progress = progress
	opt.Modules = moduleIDs(*modules)

	ids := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		ids = experiments
	}
	for _, id := range ids {
		tbl, err := runExperiment(strings.TrimSpace(id), opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "characterize: %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := tbl.Fprint(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "characterize: %v\n", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, tbl); err != nil {
				fmt.Fprintf(os.Stderr, "characterize: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// moduleIDs splits the -modules flag into IDs, trimming the spaces
// around each, as -exp does; an empty flag keeps the experiment's
// defaults.
func moduleIDs(flag string) []string {
	if flag == "" {
		return nil
	}
	ids := strings.Split(flag, ",")
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
	}
	return ids
}

func runExperiment(id string, opt exp.CharOptions) (*exp.Table, error) {
	switch id {
	case "table1":
		return exp.Table1(opt)
	case "fig4":
		return exp.Fig4(opt)
	case "fig6":
		return exp.Fig6(opt)
	case "fig7":
		return exp.Fig7(opt)
	case "fig8":
		return exp.Fig8(opt)
	case "fig9":
		return exp.Fig9(opt)
	case "fig10":
		return exp.Fig10(opt)
	case "fig11":
		return exp.Fig11(opt)
	case "fig12":
		return exp.Fig12(opt)
	case "fig13":
		return exp.Fig13(opt)
	case "fig14":
		return exp.Fig14(opt)
	case "table3":
		return exp.Table3(opt)
	case "profiling":
		return exp.Profiling(), nil
	}
	return nil, fmt.Errorf("unknown experiment %q (have: %s)", id, strings.Join(experiments, " "))
}

func writeCSV(dir string, tbl *exp.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tbl.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tbl.WriteCSV(f)
}
