// Command scenario runs declarative experiment specs: JSON files (or
// built-in catalog entries) describing memory geometry, mitigation and
// PaCRAM configuration, per-core workloads and sweep axes, compiled
// onto the parallel sweep engine. It is the front door to experiments
// the paper's figure drivers never hard-coded.
//
// Usage:
//
//	scenario list [-remote URL]       # built-in catalog
//	scenario metrics [-remote URL]    # per-member metric reference
//	scenario validate [-remote URL] [file...]
//	scenario run [flags] <name|file>...
//
// Examples:
//
//	scenario run hammer-victim
//	scenario run fig17 -parallel 8 -cache .pacram-cache -csv out/
//	scenario validate my-experiment.json
//	scenario run my-experiment.json -quiet
//
// With -remote URL the command talks to a pacramd sweep server
// instead of simulating locally; run output is byte-identical either
// way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"pacram/internal/runner"
	"pacram/internal/scenario"
	"pacram/internal/service"
	"pacram/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = list(os.Args[2:])
	case "metrics":
		err = metrics(os.Args[2:])
	case "validate":
		err = validate(os.Args[2:])
	case "run":
		err = run(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  scenario list [-remote URL]       list the built-in catalog
  scenario metrics [-remote URL]    list the per-member metrics columns can use
  scenario validate [-remote URL] [file...]
                                    validate spec files (no args: the catalog)
  scenario run [flags] <name|file>  run built-in scenarios or spec files

run flags:
  -remote URL      run on a pacramd sweep server instead of locally;
                   output is byte-identical to a local run
  -parallel N      worker pool size (0 = all CPUs); results identical at any value
  -cache DIR       persist per-cell results; re-runs skip finished cells
  -store URL       also read/write cells on a pacramd cache origin at URL
  -csv DIR         also write per-scenario CSV files
  -quiet           suppress progress/ETA output on stderr
  -cpuprofile FILE write a CPU profile (go tool pprof)
  -trace FILE      record a per-cell span trace as JSONL (see cmd/tracetool)
`)
}

// remoteFlag parses the flags shared by the reference subcommands.
func remoteFlag(name string, args []string) (remote string, rest []string, err error) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	r := fs.String("remote", "", "pacramd server URL")
	if err := fs.Parse(args); err != nil {
		return "", nil, err
	}
	return *r, fs.Args(), nil
}

func list(args []string) error {
	remote, rest, err := remoteFlag("list", args)
	if err != nil {
		return err
	}
	if len(rest) > 0 {
		return fmt.Errorf("list: unexpected argument %q", rest[0])
	}
	if remote != "" {
		entries, err := service.NewClient(remote).Catalog()
		if err != nil {
			return err
		}
		for _, e := range entries {
			printCatalogEntry(os.Stdout, e.Name, e.Cells, e.Rows, e.Profile, e.Source, e.Description)
		}
		return nil
	}
	specs, err := scenario.Catalog()
	if err != nil {
		return err
	}
	for _, s := range specs {
		p, err := s.Compile()
		if err != nil {
			return err
		}
		printCatalogEntry(os.Stdout, s.Name, p.Jobs(), p.Rows(), s.MemoryProfile(), s.Sources(), s.Description)
	}
	return nil
}

// printCatalogEntry is the one list-line format, shared by the local
// and remote branches so their output cannot drift apart. An old
// server omits profile/source; the columns print empty rather than
// shifting.
func printCatalogEntry(w io.Writer, name string, cells, rows int, profile, source, desc string) {
	fmt.Fprintf(w, "%-20s %3d cells, %2d rows  %-12s %-26s %s\n", name, cells, rows, profile, source, desc)
}

func metrics(args []string) error {
	remote, rest, err := remoteFlag("metrics", args)
	if err != nil {
		return err
	}
	if len(rest) > 0 {
		return fmt.Errorf("metrics: unexpected argument %q", rest[0])
	}
	var lines []string
	if remote != "" {
		if lines, err = service.NewClient(remote).MetricDocs(); err != nil {
			return err
		}
	} else {
		lines = scenario.MetricDocs()
	}
	for _, line := range lines {
		fmt.Println(line)
	}
	return nil
}

func validate(args []string) error {
	remote, paths, err := remoteFlag("validate", args)
	if err != nil {
		return err
	}
	if remote != "" {
		return validateRemote(service.NewClient(remote), paths)
	}
	if len(paths) == 0 {
		specs, err := scenario.Catalog()
		if err != nil {
			return err
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				return err
			}
			fmt.Printf("builtin %s: ok\n", s.Name)
		}
		return nil
	}
	for _, path := range paths {
		s, err := scenario.LoadFile(path)
		if err != nil {
			return err
		}
		if err := s.Validate(); err != nil {
			return err
		}
		fmt.Printf("%s: ok\n", path)
	}
	return nil
}

// validateRemote routes validation through the server: catalog names
// when no files are given, raw spec documents otherwise.
func validateRemote(c *service.Client, paths []string) error {
	if len(paths) == 0 {
		entries, err := c.Catalog()
		if err != nil {
			return err
		}
		for _, e := range entries {
			if _, err := c.Validate(service.SubmitRequest{Scenario: e.Name}); err != nil {
				return err
			}
			fmt.Printf("builtin %s: ok\n", e.Name)
		}
		return nil
	}
	for _, path := range paths {
		// Parse locally first — exactly like run's remote path — so
		// malformed JSON fails with the file path attached instead of
		// an anonymous server-side 422.
		s, err := scenario.LoadFile(path)
		if err != nil {
			return err
		}
		raw, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := c.Validate(service.SubmitRequest{Spec: raw}); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: ok\n", path)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		remote   = fs.String("remote", "", "run on a pacramd sweep server at this URL instead of locally")
		parallel = fs.Int("parallel", 0, "worker pool size (0 = all CPUs); results are identical at any value")
		cacheDir = fs.String("cache", "", "cache completed cells as JSON in this directory; re-runs skip them")
		storeURL = fs.String("store", "", "also read/write cells on a pacramd cache origin at this URL")
		csvDir   = fs.String("csv", "", "directory to write per-scenario CSV files")
		quiet    = fs.Bool("quiet", false, "suppress progress/ETA output on stderr")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		traceOut = fs.String("trace", "", "record a per-cell span trace (JSONL) to this file (see cmd/tracetool)")
	)
	// Accept flags before or after the scenario names.
	var names []string
	for len(args) > 0 {
		if err := fs.Parse(args); err != nil {
			return err
		}
		rest := fs.Args()
		if len(rest) == len(args) {
			// Parse consumed nothing: the head is a non-flag argument.
			names = append(names, rest[0])
			rest = rest[1:]
		}
		args = rest
	}
	if len(names) == 0 {
		return fmt.Errorf("run: need a built-in scenario name or spec file (see 'scenario list')")
	}

	if *remote != "" {
		// Execution knobs belong to the server in remote mode;
		// rejecting them beats silently running with different
		// semantics than the flags promise.
		switch {
		case *parallel != 0:
			return fmt.Errorf("run: -parallel is a local execution knob; the server's -parallel governs remote runs")
		case *cacheDir != "":
			return fmt.Errorf("run: -cache is a local execution knob; the server owns the remote result store")
		case *storeURL != "":
			return fmt.Errorf("run: -store is a local execution knob; configure the server's -store instead")
		case *cpuprof != "":
			return fmt.Errorf("run: -cpuprofile profiles local execution; it cannot profile the server")
		case *traceOut != "":
			return fmt.Errorf("run: -trace records local execution; use pacramd's -trace for server-side traces")
		}
		return runRemote(service.NewClient(*remote), names, *csvDir, *quiet)
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
	store, err := runner.OpenStore(*cacheDir, *storeURL, 0)
	if err != nil {
		return err
	}
	opt := scenario.RunOptions{Parallel: *parallel, Store: store, Progress: progress}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		tw := telemetry.NewTraceWriter(f)
		// Tracing is observability: surface a failed write as a warning
		// after the runs, never as a failed sweep.
		defer func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "scenario: warning: trace write degraded: %v\n", err)
			}
		}()
		opt.Trace = tw
	}

	for _, name := range names {
		s, err := load(name)
		if err != nil {
			return err
		}
		// Each scenario's spans carry its name as the trace ID, so a
		// multi-scenario run yields one file tracetool can still group.
		opt.TraceID = s.Name
		tbl, err := scenario.Run(s, opt)
		if err != nil {
			return err
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

// runRemote submits each scenario to the server, streams progress,
// and prints the server-rendered table — the exact bytes a local run
// prints.
func runRemote(c *service.Client, names []string, csvDir string, quiet bool) error {
	for _, name := range names {
		req, label, err := submitRequest(name)
		if err != nil {
			return err
		}
		st, err := c.Submit(req)
		if err != nil {
			return err
		}
		final, err := c.Watch(context.Background(), st.ID, remoteProgress(label, quiet))
		if err != nil {
			return err
		}
		if final.State != service.StateDone {
			if !quiet {
				fmt.Fprintf(os.Stderr, "\r%-70s\n", fmt.Sprintf("%s: %s after %d/%d cells on %s",
					label, final.State, final.Done, final.Cells, st.ID))
			}
			return fmt.Errorf("%s", final.Error)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "\r%-70s\n", fmt.Sprintf("%s: %d/%d cells done on %s (%d cached, %d coalesced)",
				label, final.Done, final.Cells, st.ID, final.Cached, final.Coalesced))
		}
		table, err := c.Table(st.ID)
		if err != nil {
			return err
		}
		os.Stdout.Write(table)
		if csvDir != "" {
			csv, err := c.CSV(st.ID)
			if err != nil {
				return err
			}
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(csvDir, final.TableID+".csv"), csv, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// submitRequest maps a run argument onto the wire: spec files are
// loaded and sent inline, anything else is a catalog name the server
// resolves. The file-vs-name decision is shared with local load(), so
// the same argument resolves identically with and without -remote.
func submitRequest(name string) (service.SubmitRequest, string, error) {
	if !looksLikeFile(name) {
		return service.SubmitRequest{Scenario: name}, name, nil
	}
	s, err := scenario.LoadFile(name)
	if err != nil {
		return service.SubmitRequest{}, "", err
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return service.SubmitRequest{}, "", err
	}
	return service.SubmitRequest{Spec: raw}, s.Name, nil
}

// remoteProgress returns a rate-limited per-cell progress printer
// mirroring the local runner's stderr lines.
func remoteProgress(label string, quiet bool) func(service.CellEvent) {
	if quiet {
		return nil
	}
	start := time.Now()
	last := time.Time{}
	var cached, coalesced, done int
	return func(ev service.CellEvent) {
		if ev.Cached {
			cached++
		}
		if ev.Coalesced {
			coalesced++
		}
		// Events arrive in completion order, not Done order; the
		// printed counter only ever advances.
		if ev.Done > done {
			done = ev.Done
		}
		now := time.Now()
		if now.Sub(last) < 500*time.Millisecond && done != ev.Total {
			return
		}
		last = now
		line := fmt.Sprintf("%s: %d/%d cells", label, done, ev.Total)
		if cached+coalesced > 0 {
			line += fmt.Sprintf(" (%d cached, %d coalesced)", cached, coalesced)
		}
		line += fmt.Sprintf(", elapsed %s", time.Since(start).Round(100*time.Millisecond))
		fmt.Fprintf(os.Stderr, "\r%-70s", line)
	}
}

// looksLikeFile decides whether a run argument names a spec file: it
// exists on disk, or it looks like a path.
func looksLikeFile(name string) bool {
	if _, err := os.Stat(name); err == nil {
		return true
	}
	return strings.ContainsAny(name, "/.")
}

// load resolves a run argument: a path to a spec file if it names one
// on disk (or looks like a path), a built-in catalog entry otherwise.
func load(name string) (*scenario.Spec, error) {
	if looksLikeFile(name) {
		return scenario.LoadFile(name)
	}
	return scenario.ByName(name)
}
