// Command perfbench is the repository's end-to-end benchmark: spec JSON
// in, table bytes out, through the public calls each layer exposes
// (scenario compile and Plan.Run, the runner's Store and Event hooks,
// the sweep service's HTTP client against an in-process server).
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	paper-sweep  the fig17 catalog spec, seeded, with a fresh disk store
//	wide-hammer  a generated 16-sided attack on 4- and 8-channel systems, no store
//	daemon-warm  a closed loop of clients against a warm sweep service
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a separately traced
// pass, an attribution report goes to stderr and the spans are written
// as JSONL under the work directory. Every output is checked; a mismatch
// counts as a failed operation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pacram/internal/exp"
	"pacram/internal/runner"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports: what a user of the
// sweep CLI or the daemon waits for and pays. The times are scaled to
// the reference host (see calib.go), which makes them steady enough
// between runs on a shared host to be gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"cpu_s", "s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, named by module, plus
// the job latency distribution and error rate, which are reported but
// too noisy between runs on a shared host to gate. A layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.host_slowdown", "ratio"},
	{"scenario.compile_ms", "ms"},
	{"scenario.assemble_ms", "ms"},
	{"runner.computed", "count"},
	{"runner.cached", "count"},
	{"runner.coalesced", "count"},
	{"runner.wait_ms", "ms"},
	{"runner.compute_p50_ms", "ms"},
	{"runner.busy_frac", "ratio"},
	{"store.put_ops", "count"},
	{"store.put_p50_us", "us"},
	{"store.put_bytes", "bytes"},
	{"store.get_ops", "count"},
	{"store.get_hit_ratio", "ratio"},
	{"store.get_p50_us", "us"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"sim.core_frac", "ratio"},
	{"sim.ctrl_frac", "ratio"},
	{"sim.window_frac", "ratio"},
	{"sim.merge_frac", "ratio"},
	{"sim.steps", "count"},
	{"sim.leaps", "count"},
	{"sim.leap_cycle_frac", "ratio"},
	{"sim.windows", "count"},
	{"sim.parallel_windows", "count"},
	{"trace.next_calls", "count"},
	{"trace.next_ns", "ns"},
	{"sim.cycles", "cycles"},
	{"memsys.acts", "count"},
	{"memsys.refs", "count"},
	{"mitigation.vrrs", "count"},
	{"mitigation.rfms", "count"},
	{"core.partial_frac", "ratio"},
	{"service.submit_ms", "ms"},
	{"service.watch_ms", "ms"},
	{"service.table_ms", "ms"},
	{"service.sse_events", "count"},
}

// exactCounts are simulated, not measured: for one seed they repeat bit
// for bit, whatever the host.
var exactCounts = []string{"sim.cycles", "memsys.acts", "memsys.refs",
	"mitigation.vrrs", "mitigation.rfms", "core.partial_frac"}

// config is one benchmark invocation. The scale fields are fixed by
// main; the self-test shrinks them.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string
	workers  int
	cal      *calibrator // nil leaves measured times unscaled

	setupReps int      // sweep set-ups per run; the daemon's set-up is heavier and runs daemonSetups times
	insts     uint64   // per-cell instruction budget override; 0 keeps the spec's
	catalog   []string // daemon-warm catalog entries; nil means the whole catalog
	// corrupt, when set, alters the reference table of the named
	// workload entry, so a test can prove the output check bites.
	corrupt func(name string, table []byte) []byte
}

func (c config) corruptRef(name string, table []byte) []byte {
	if c.corrupt == nil {
		return table
	}
	return c.corrupt(name, table)
}

// freshDiskStore opens a disk store in a new directory under the work
// directory; the caller removes the directory.
func (c config) freshDiskStore() (*runner.DiskStore, string, error) {
	dir, err := os.MkdirTemp(filepath.Join(c.workdir, "tmp"), "store-")
	if err != nil {
		return nil, "", err
	}
	st, err := runner.NewDiskStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return st, dir, nil
}

// outcome collects one run's metrics, operation counts and failures.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failures  []string
	notes     []string
	rec       *recorder
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// render produces the exact table bytes `scenario run` prints.
func render(t *exp.Table) []byte {
	var buf bytes.Buffer
	t.Fprint(&buf)
	return buf.Bytes()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and assembles the result line.
func run(cfg config, stderr io.Writer) (resultLine, error) {
	var out *outcome
	var err error
	switch cfg.workload {
	case "paper-sweep":
		out, err = runSweep(cfg, sweepWorkload{name: cfg.workload, spec: paperSweepSpec, diskStore: true})
	case "wide-hammer":
		out, err = runSweep(cfg, sweepWorkload{name: cfg.workload, spec: wideHammerSpec})
	case "daemon-warm":
		out, err = runDaemon(cfg)
	default:
		return resultLine{}, fmt.Errorf("unknown workload %q (have: paper-sweep wide-hammer daemon-warm)", cfg.workload)
	}
	if err != nil {
		return resultLine{}, err
	}
	failed := min(len(out.failures), out.attempted)
	out.set("error_rate", float64(failed)/float64(max(out.attempted, 1)))

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{Attempted: out.attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	line.Correct = len(out.failures) == 0 && out.attempted > 0

	for _, f := range out.failures {
		fmt.Fprintf(stderr, "FAIL %s: %s\n", cfg.workload, f)
	}
	for _, n := range out.notes {
		fmt.Fprintf(stderr, "note %s: %s\n", cfg.workload, n)
	}
	if cfg.trace && out.rec != nil {
		printAttribution(stderr, cfg.workload, out.rec, out.metrics["bench.trace_overhead"])
		var counts []string
		for _, n := range exactCounts {
			counts = append(counts, fmt.Sprintf("%s=%v", n, out.metrics[n]))
		}
		fmt.Fprintf(stderr, "exact counts %s seed %d: %s\n", cfg.workload, cfg.seed, strings.Join(counts, " "))
		path := filepath.Join(cfg.workdir, "traces", out.rec.traceID+".jsonl")
		if err := out.rec.writeJSONL(path); err != nil {
			return resultLine{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stderr, "spans written to %s\n", path)
	}
	return line, nil
}

func main() {
	var cfg config
	var seed int64
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-sweep, wide-hammer or daemon-warm")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 15, "how long the untraced measurement runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for scratch stores and span files")
	flag.Parse()
	if seed < 0 || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seed >= 0, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	cfg.seed = uint64(seed)
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()
	cfg.setupReps = 51
	cfg.cal = newCalibrator(cfg.workers)
	if err := os.MkdirAll(filepath.Join(cfg.workdir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	line, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
