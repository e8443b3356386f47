package scenario

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"pacram/internal/exp"
	"pacram/internal/runner"
	"pacram/internal/sim"
	"pacram/internal/stats"
	"pacram/internal/telemetry"
)

// RunOptions configures one scenario execution.
type RunOptions struct {
	// Parallel bounds the runner's worker pool (0 = all CPUs). Results
	// are bit-identical at any worker count.
	Parallel int
	// CacheDir, when non-empty and Store is nil, persists per-cell
	// results as JSON on disk (a disk-only runner.OpenStore stack
	// opened for this one run); repeated runs at the same
	// configuration skip finished cells. The cache is shared across
	// scenarios: cells are addressed by their full resolved
	// configuration, not by scenario name.
	CacheDir string
	// Progress, when non-nil, receives streaming progress and ETA
	// lines (typically os.Stderr).
	Progress io.Writer
	// Pool, when non-nil, executes the cells on a shared long-lived
	// worker pool instead of a transient one: the pool's slot count
	// governs (Parallel is ignored) and identical cells asked for by
	// concurrent executions are computed once. The sweep service runs
	// every submission this way.
	Pool *runner.Pool[sim.Result]
	// Store, when non-nil, is a pre-opened shared result store (the
	// commands' runner.OpenStore stack, the daemon's); it takes
	// precedence over CacheDir.
	Store runner.Store
	// Remote, when non-nil, may execute owner-path cells on fleet
	// workers (see runner.Options.Remote); results stay byte-identical
	// to a local run.
	Remote runner.RemoteExecutor
	// OnEvent, when non-nil, receives one event per finished cell
	// (see runner.Event). Must be safe for concurrent use.
	OnEvent func(runner.Event)
	// OnWarning, when non-nil, receives non-fatal degradation warnings
	// in structured form (see runner.Options.OnWarning).
	OnWarning func(runner.Warning)
	// Trace, when non-nil, records one span tree per cell into the
	// writer; TraceID groups the spans (see runner.Options.Trace).
	Trace   *telemetry.TraceWriter
	TraceID string
}

// Run compiles and executes a spec in one call.
func Run(s *Spec, opt RunOptions) (*exp.Table, error) {
	p, err := s.Compile()
	if err != nil {
		return nil, err
	}
	return p.Run(opt)
}

// The runner options every plan runs under, fixed so that Compile can
// address each cell in the store once per plan.
const (
	// Cells ignore Ctx.Seed (each carries its resolved seed in its
	// key), so the engine seed is pinned to 0: mixing the spec seed
	// into cache hashes would fragment the cache between specs that
	// default the seed and specs that spell it out.
	runSeed = 0
	// Keys carry the full resolved cell configuration, so the
	// fingerprint only needs to version the schema.
	runFingerprint = "scenario:v1"
)

// Run executes the plan's job matrix and assembles the output table.
func (p *Plan) Run(opt RunOptions) (*exp.Table, error) {
	ropt := runner.Options{
		Workers:     opt.Parallel,
		Seed:        runSeed,
		Fingerprint: runFingerprint,
		Progress:    opt.Progress,
		Label:       p.Spec.Name,
		Store:       opt.Store,
		Remote:      opt.Remote,
		OnEvent:     opt.OnEvent,
		OnWarning:   opt.OnWarning,
		Trace:       opt.Trace,
		TraceID:     opt.TraceID,
	}
	if ropt.Store == nil && opt.CacheDir != "" {
		st, err := runner.OpenStore(opt.CacheDir, "", -1)
		if err != nil {
			return nil, err
		}
		ropt.Store = st
	}
	var results []sim.Result
	var err error
	if opt.Pool != nil {
		results, err = opt.Pool.Run(ropt, p.matrix.Jobs())
	} else {
		results, err = runner.Run(ropt, p.matrix.Jobs())
	}
	if err != nil {
		return nil, err
	}

	t := &exp.Table{ID: p.Spec.Table.ID, Title: p.Spec.Table.Title}
	if t.ID == "" {
		t.ID = p.Spec.Name
	}
	if t.Title == "" {
		t.Title = p.Spec.Description
	}
	for _, col := range p.Spec.Columns {
		t.Columns = append(t.Columns, col.Name)
	}
	for _, row := range p.rows {
		cells := make([]any, 0, len(p.Spec.Columns))
		for _, col := range p.Spec.Columns {
			if col.Axis != "" {
				cells = append(cells, row.display[col.Axis])
				continue
			}
			m := metricRegistry[col.Metric]
			vals := make([]float64, 0, len(row.groups[p.groupIdx[col.Group]]))
			var bases []float64 // the baselines' own values, for ratioOfSums
			for _, mc := range row.groups[p.groupIdx[col.Group]] {
				var base *sim.Result
				if mc.base >= 0 {
					base = &results[mc.base]
				}
				vals = append(vals, m.eval(&results[mc.cell], base))
				if col.Agg == ratioOfSums {
					bases = append(bases, m.eval(base, nil))
				}
			}
			v, err := aggregate(col.Agg, vals, bases)
			if err != nil {
				return nil, err // unreachable: validated at compile time
			}
			if m.kind == countMetric && col.Agg != ratioOfSums && v == math.Trunc(v) && !math.IsInf(v, 0) {
				cells = append(cells, int64(v))
				continue
			}
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// metricKind classifies a metric: a raw per-member value, one divided
// by the member's baseline cell, or an event count (raw, and printed
// as an integer when the aggregate is one).
type metricKind int

const (
	rawMetric metricKind = iota
	normMetric
	countMetric
)

// metric is one per-member measurement.
type metric struct {
	kind metricKind
	doc  string
	eval func(res, base *sim.Result) float64
}

// metricRegistry is the per-member metric surface. normWS equals
// plain normalized IPC for single-core members and per-core weighted
// speedup for mixes — the figure drivers' convention.
var metricRegistry = map[string]metric{
	"normWS": {normMetric, "weighted speedup vs baseline / cores", func(r, b *sim.Result) float64 {
		return stats.WeightedSpeedup(r.IPC, b.IPC) / float64(len(r.IPC))
	}},
	"normEnergy": {normMetric, "DRAM energy vs baseline", func(r, b *sim.Result) float64 {
		return r.Energy.Total() / b.Energy.Total()
	}},
	"normReadLat": {normMetric, "average read latency vs baseline", func(r, b *sim.Result) float64 {
		return r.Stats.AvgReadLatency() / b.Stats.AvgReadLatency()
	}},
	"normSumIPC": {normMetric, "total system IPC vs baseline", func(r, b *sim.Result) float64 {
		return r.SumIPC() / b.SumIPC()
	}},
	"sumIPC":  {rawMetric, "total system IPC", func(r, _ *sim.Result) float64 { return r.SumIPC() }},
	"meanIPC": {rawMetric, "per-core mean IPC", func(r, _ *sim.Result) float64 { return r.SumIPC() / float64(len(r.IPC)) }},
	"energyUJ": {rawMetric, "DRAM energy in microjoules", func(r, _ *sim.Result) float64 {
		return r.Energy.Total() * 1e6
	}},
	"prevRefBusyPct": {rawMetric, "bank time in preventive refresh, percent", func(r, _ *sim.Result) float64 {
		return 100 * r.PrevRefBusyFraction
	}},
	"partialPct": {rawMetric, "preventive refreshes at reduced latency, percent", func(r, _ *sim.Result) float64 {
		return 100 * r.PartialFraction
	}},
	"avgReadLat": {rawMetric, "average read latency in cycles", func(r, _ *sim.Result) float64 {
		return r.Stats.AvgReadLatency()
	}},
	"acts":      {countMetric, "row activations", func(r, _ *sim.Result) float64 { return float64(r.Stats.Acts) }},
	"vrrs":      {countMetric, "preventive (victim-row) refreshes", func(r, _ *sim.Result) float64 { return float64(r.Stats.VRRs) }},
	"rfms":      {countMetric, "refresh-management commands", func(r, _ *sim.Result) float64 { return float64(r.Stats.RFMs) }},
	"refs":      {countMetric, "periodic refreshes", func(r, _ *sim.Result) float64 { return float64(r.Stats.Refs) }},
	"scaledNRH": {countMetric, "threshold the mechanism ran with", func(r, _ *sim.Result) float64 { return float64(r.ScaledNRH) }},
}

// metricNames lists the registry for error messages, sorted.
func metricNames() string {
	names := make([]string, 0, len(metricRegistry))
	for n := range metricRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// MetricDocs returns "name — doc" lines for CLI help, sorted.
func MetricDocs() []string {
	names := make([]string, 0, len(metricRegistry))
	for n := range metricRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%s — %s", n, metricRegistry[n].doc)
	}
	return out
}

// ratioOfSums is the aggregation that divides the members' summed
// metric by their baselines' sum (Fig. 16's normalized IPC).
const ratioOfSums = "ratioOfSums"

// aggregate folds per-member values into one cell; bases are the
// members' baseline values, which only ratioOfSums reads.
func aggregate(agg string, vals, bases []float64) (float64, error) {
	switch agg {
	case "", "mean":
		return stats.Mean(vals), nil
	case "min":
		return stats.Min(vals), nil
	case "max":
		return stats.Max(vals), nil
	case "geomean":
		return stats.Geomean(vals), nil
	case "sum":
		return sum(vals), nil
	case ratioOfSums:
		return sum(vals) / sum(bases), nil
	}
	return math.NaN(), fmt.Errorf("unknown aggregation %q (have: mean min max sum geomean %s)", agg, ratioOfSums)
}

// sum adds vals in order.
func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}
