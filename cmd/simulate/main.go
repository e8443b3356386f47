// Command simulate runs the system-level experiments of the paper
// (Figs. 3 and 16-19, plus the §8.4 area report): trace-driven cores
// over the DDR5 memory system with the five RowHammer mitigation
// mechanisms, with and without PaCRAM.
//
// Examples:
//
//	simulate -exp fig3                      # preventive-refresh overhead sweep
//	simulate -exp fig17 -nrh 1024,256,64    # performance vs threshold
//	simulate -exp fig16 -workloads 429.mcf -mitigations RFM
//	simulate -exp all -csv out/ -parallel 8 -cache .pacram-cache
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"pacram/internal/exp"
	"pacram/internal/mitigation"
	"pacram/internal/runner"
	"pacram/internal/scenario"
	"pacram/internal/sim"
	"pacram/internal/trace"
)

var experiments = []string{"fig3", "fig16", "fig17", "fig18", "fig19", "area", "run", "takeaways"}

func main() {
	// All work happens in realMain so its defers — above all the CPU
	// profile flush — also run on error paths; os.Exit would skip them.
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		expFlag   = flag.String("exp", "fig3", "experiment id, comma-separated list, or 'all': "+strings.Join(experiments, " "))
		insts     = flag.Uint64("insts", 60_000, "instructions per core (paper: 100M)")
		warmup    = flag.Uint64("warmup", 6_000, "warmup instructions per core (paper: 10M)")
		nrhs      = flag.String("nrh", "1024,256,64", "RowHammer thresholds to simulate")
		mixes     = flag.Int("mixes", 3, "number of 4-core mixes (paper: 60)")
		workloads = flag.String("workloads", "", "comma-separated single-core workloads (default: representative six)")
		mechs     = flag.String("mitigations", "", "comma-separated mechanisms (default: all five)")
		channels  = flag.Int("channels", 0, "memory channels, each with its own controller and mitigation instance (0 = paper default 1; supported: 1 2 4 8)")
		ranks     = flag.Int("ranks", 0, "ranks per channel (0 = paper default 2; supported: 1 2 4 8)")
		traceFile = flag.String("tracefile", "", "replay a trace file on one core (with -exp run)")
		seed      = flag.Uint64("seed", 0x51317, "simulation seed")
		csvDir    = flag.String("csv", "", "directory to write per-experiment CSV files")
		parallel  = flag.Int("parallel", 0, "worker pool size (0 = all CPUs); results are identical at any value")
		cacheDir  = flag.String("cache", "", "cache completed cells as JSON in this directory; re-runs skip them")
		storeURL  = flag.String("store", "", "also read/write cells on a pacramd cache origin at this URL")
		quiet     = flag.Bool("quiet", false, "suppress progress/ETA output on stderr")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		profile   = flag.Bool("profile", false, "with -tracefile: attribute simulated work per layer (sim.Options.Profile)")
	)
	flag.Parse()

	// Profile attribution is a property of one direct sim.Run; the table
	// experiments run cells through the result cache, where a profiled
	// and an unprofiled run are deliberately the same entry.
	if *profile && *traceFile == "" {
		return fmt.Errorf("-profile requires -tracefile (experiments cache per-cell results; profile wall-time attribution is per direct run)")
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}

	// Reject bad geometry up front, like -mitigation typos: a bad value
	// would otherwise surface deep inside sim.Run, after valid cells.
	for _, f := range []struct {
		name string
		v    int
	}{{"channels", *channels}, {"ranks", *ranks}} {
		if f.v < 0 || f.v > 8 || (f.v > 0 && f.v&(f.v-1) != 0) {
			return fmt.Errorf("bad -%s %d: must be a power of two in 1..8 (0 keeps the paper default)", f.name, f.v)
		}
	}

	opt := exp.DefaultSysOptions()
	opt.Channels = *channels
	opt.Ranks = *ranks
	opt.Instructions = *insts
	opt.Warmup = *warmup
	opt.MixCount = *mixes
	opt.Seed = *seed
	if *workloads != "" {
		opt.Workloads = strings.Split(*workloads, ",")
	}
	if *mechs != "" {
		opt.Mitigations = strings.Split(*mechs, ",")
		// Reject typos up front: a bad name would otherwise surface
		// deep inside sim.Run, after minutes of valid cells.
		for _, m := range opt.Mitigations {
			if !mitigation.Known(m) {
				return fmt.Errorf("unknown mitigation %q (valid: %s, None)",
					m, strings.Join(mitigation.AllNames(), ", "))
			}
		}
	}
	opt.NRHs = opt.NRHs[:0]
	for _, s := range strings.Split(*nrhs, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			return fmt.Errorf("bad NRH %q", s)
		}
		opt.NRHs = append(opt.NRHs, v)
	}

	if *traceFile != "" {
		return runTraceFile(os.Stdout, *traceFile, opt, *profile)
	}

	ids := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		ids = experiments
	}
	// Every experiment runs on one store, so a cell one computed is a
	// hit for the next (fig18 reads fig17's cells). T1-T6 run at the
	// default characterization scale on the same workers and store.
	store, err := runner.OpenStore(*cacheDir, *storeURL, 0)
	if err != nil {
		return err
	}
	ropt := scenario.RunOptions{Parallel: *parallel, Store: store, Progress: progress}
	co := exp.DefaultCharOptions()
	co.Parallel, co.Store, co.Progress = *parallel, store, progress
	for _, id := range ids {
		tbl, err := runExperiment(strings.TrimSpace(id), opt, co, ropt)
		if err != nil {
			return fmt.Errorf("%s: %v", id, err)
		}
		if err := tbl.Fprint(os.Stdout); err != nil {
			return err
		}
		if *csvDir != "" {
			if err := tbl.WriteCSVFile(*csvDir); err != nil {
				return err
			}
		}
	}
	return nil
}

func runExperiment(id string, opt exp.SysOptions, co exp.CharOptions, ropt scenario.RunOptions) (*exp.Table, error) {
	switch id {
	case "fig3", "fig16", "fig17", "fig18", "fig19", "run":
		s, err := scenario.FigureSpec(id, opt)
		if err != nil {
			return nil, err
		}
		return scenario.Run(s, ropt)
	case "area":
		return exp.AreaReport(), nil
	case "takeaways":
		fig17, fig18, err := scenario.ClaimFigures(opt, ropt)
		if err != nil {
			return nil, err
		}
		return exp.Takeaways(co, fig17, fig18)
	}
	return nil, fmt.Errorf("unknown experiment %q (have: %s)", id, strings.Join(experiments, " "))
}

// runTraceFile replays a trace file on a single core under at most one
// mitigation and prints the detailed statistics to w; with profile,
// also the per-layer attribution of where simulated and wall-clock
// time went.
func runTraceFile(w io.Writer, path string, o exp.SysOptions, profile bool) error {
	if len(o.Mitigations) > 1 {
		return fmt.Errorf("-tracefile replays one run: give at most one -mitigations name, not %d", len(o.Mitigations))
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.ReadRecords(f)
	if err != nil {
		return err
	}
	gen, err := trace.NewReplay(path, recs)
	if err != nil {
		return err
	}
	sopt := sim.DefaultOptions()
	sopt.Generators = []trace.Generator{gen}
	sopt.MemCfg = sim.SmallMemConfig()
	if o.Channels != 0 {
		sopt.MemCfg.Geometry.Channels = o.Channels
	}
	if o.Ranks != 0 {
		sopt.MemCfg.Geometry.Ranks = o.Ranks
	}
	sopt.Instructions = o.Instructions
	sopt.Warmup = o.Warmup
	sopt.NRH = o.NRHs[0]
	sopt.Seed = o.Seed
	if len(o.Mitigations) == 1 {
		sopt.Mitigation = o.Mitigations[0]
	}
	sopt.Profile = profile
	res, err := sim.Run(sopt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s (%d records): IPC %.4f, %d reads, %d writes, %d ACTs, prev-ref busy %.3f%%, energy %.3g J\n",
		path, len(recs), res.IPC[0], res.Stats.Reads, res.Stats.Writes,
		res.Stats.Acts, 100*res.PrevRefBusyFraction, res.Energy.Total())
	if p := res.Profile; p != nil {
		fmt.Fprintf(w, "profile (%s engine): %d cycles in %d steps", p.Engine, p.SimCycles, p.Steps)
		if p.Leaps > 0 {
			fmt.Fprintf(w, " + %d leaps covering %d cycles (%.1f%%)",
				p.Leaps, p.LeapCycles, 100*float64(p.LeapCycles)/float64(p.SimCycles))
		}
		fmt.Fprintf(w, "\n  cores: %d ticks, %d stall-skips, %.1fms; controller: %.1fms; wall %.1fms (%.2fM cycles/s)\n",
			p.CoreTicks, p.CoreStallSkips, float64(p.CoreNanos)/1e6,
			float64(p.CtrlNanos)/1e6, float64(p.WallNanos)/1e6, p.CyclesPerSecond/1e6)
		if p.QuietLeaps > 0 {
			fmt.Fprintf(w, "  quiet leaps: %d covering %d cycles (%.1f%%)\n",
				p.QuietLeaps, p.QuietCycles, 100*float64(p.QuietCycles)/float64(p.SimCycles))
		}
		if p.Windows > 0 {
			fmt.Fprintf(w, "  windows: %d (%d parallel) covering %d cycles, %d channel ticks over %d channel-advances, %.1fms (merge %.2fms)\n",
				p.Windows, p.ParallelWindows, p.WindowCycles,
				p.WindowChannelTicks, p.WindowChannelsAdvanced,
				float64(p.WindowNanos)/1e6, float64(p.MergeNanos)/1e6)
		}
		fmt.Fprintf(w, "  commands: %d refreshes, %d RFMs, %d preventive refreshes\n",
			p.Refreshes, p.RFMs, p.PreventiveRefreshes)
	}
	return nil
}
