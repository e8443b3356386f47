// Command artifact checks the paper's four artifact-evaluation claims
// (Appendix A.5; see exp.ArtifactClaims), printing PASS/FAIL per claim
// and exiting nonzero on any FAIL. C1 reads S6's characterization
// points at -rows and -seed; C2 reads the RFM@64 cells of Figs. 17 and
// 18 (scenario.ClaimFigures) at -insts and -seed. Cells run on the
// runner pool (-parallel N; results are identical at any N) and are
// cached in -cache DIR under the keys cmd/characterize and
// cmd/simulate use.
//
// Run with: go run ./cmd/artifact [-rows N] [-insts N] [-parallel N] [-cache DIR]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pacram/internal/exp"
	"pacram/internal/runner"
	"pacram/internal/scenario"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command with args, printing the verdicts to stdout
// and progress and errors to stderr, and returns the exit code.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("artifact", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		rows     = fs.Int("rows", 16, "rows per module for the characterization claims")
		insts    = fs.Uint64("insts", 40_000, "instructions per core for the system claims")
		seed     = fs.Uint64("seed", 0x9ac24a, "seed")
		parallel = fs.Int("parallel", 0, "worker pool size (0 = all CPUs); results are identical at any value")
		cacheDir = fs.String("cache", ".pacram-cache", "cell cache directory ('' keeps cells in memory for this run only)")
		quiet    = fs.Bool("quiet", false, "suppress progress/ETA output on stderr")
	)
	fs.Parse(args) // exits on a bad flag, as the flag package's defaults do
	var progress io.Writer
	if !*quiet {
		progress = stderr
	}

	co := exp.DefaultCharOptions()
	co.Rows, co.Seed, co.Parallel, co.Progress = *rows, *seed, *parallel, progress
	so := exp.DefaultSysOptions()
	so.Instructions, so.Warmup, so.Seed = *insts, *insts/10, *seed
	claims, err := checkClaims(co, so, *cacheDir)
	if err != nil {
		fmt.Fprintln(stderr, "artifact:", err)
		return 1
	}

	failures := 0
	for _, c := range claims {
		status := "PASS"
		if !c.Holds {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(stdout, "[%s] %-4s %s\n       %s\n", status, c.ID, c.Statement, c.Evidence)
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "\n%d claim(s) FAILED\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "\nall claims PASS")
	return 0
}

// checkClaims rejects a characterization scale no measurement can run
// at before any cell runs, then runs C2's Fig. 17 and 18 cells and C1's
// characterization points on one store, opened at cacheDir, under co's
// workers and progress.
func checkClaims(co exp.CharOptions, so exp.SysOptions, cacheDir string) ([]exp.Claim, error) {
	if err := co.Validate(); err != nil {
		return nil, err
	}
	store, err := runner.OpenStore(cacheDir, "", 0)
	if err != nil {
		return nil, err
	}
	co.Store = store
	fig17, fig18, err := scenario.ClaimFigures(so, scenario.RunOptions{Parallel: co.Parallel, Store: store, Progress: co.Progress})
	if err != nil {
		return nil, err
	}
	return exp.ArtifactClaims(co, fig17, fig18)
}
