package runner

import (
	"fmt"
	"time"

	"pacram/internal/telemetry"
)

// Cell outcome labels, shared by pool metrics, trace span attributes
// and the daemon's exposition. Event.Outcome is the one place a label
// is chosen.
const (
	OutcomeComputed  = "computed"
	OutcomeCached    = "cached"
	OutcomeCoalesced = "coalesced"
	OutcomeFailed    = "failed"
	// OutcomeRemote marks a cell executed on a remote worker via a
	// RemoteExecutor (worker-side cache hits report OutcomeCached).
	OutcomeRemote = "remote"
)

// Outcome labels the finished cell: failed if it has an error, then
// cached, coalesced, remote (a worker executed it), else computed.
func (ev Event) Outcome() string {
	switch {
	case ev.Err != nil:
		return OutcomeFailed
	case ev.Cached:
		return OutcomeCached
	case ev.Coalesced:
		return OutcomeCoalesced
	case ev.Worker != "":
		return OutcomeRemote
	}
	return OutcomeComputed
}

// poolMetrics is a Pool's resolved instrument set. The zero value
// (all nil instruments) is the uninstrumented state: every method on a
// nil instrument is a no-op, so the worker loop carries no "is
// telemetry on?" branches.
type poolMetrics struct {
	waiting        *telemetry.Gauge
	inflight       *telemetry.Gauge
	outcomes       map[string]*telemetry.Counter
	cellSeconds    *telemetry.Histogram
	computeSeconds *telemetry.Histogram
}

// Instrument registers the pool's metrics on reg and routes the
// worker loop's accounting through them. Call it once, before Run —
// instruments are resolved here so the hot path never touches the
// registry. A nil reg leaves the pool uninstrumented.
//
// Series (all prefixed pacram_pool_):
//
//	pacram_pool_workers          gauge      concurrency bound
//	pacram_pool_wait_cells       gauge      cells waiting for a slot
//	pacram_pool_inflight_cells   gauge      cells computing right now
//	pacram_pool_cells_total      counter    finished cells, by {outcome}
//	pacram_pool_cell_seconds     histogram  end-to-end per-cell wall time
//	pacram_pool_compute_seconds  histogram  compute-phase wall time
func (p *Pool[T]) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("pacram_pool_workers", "Worker pool concurrency bound.").Set(int64(cap(p.slots)))
	outcomes := reg.CounterVec("pacram_pool_cells_total",
		"Finished sweep cells by outcome (computed, cached, coalesced, remote, failed).", "outcome")
	p.metrics = poolMetrics{
		waiting:  reg.Gauge("pacram_pool_wait_cells", "Cells currently waiting for a pool slot."),
		inflight: reg.Gauge("pacram_pool_inflight_cells", "Cells currently computing."),
		outcomes: map[string]*telemetry.Counter{
			OutcomeComputed:  outcomes.With(OutcomeComputed),
			OutcomeCached:    outcomes.With(OutcomeCached),
			OutcomeCoalesced: outcomes.With(OutcomeCoalesced),
			OutcomeFailed:    outcomes.With(OutcomeFailed),
			OutcomeRemote:    outcomes.With(OutcomeRemote),
		},
		cellSeconds: reg.Histogram("pacram_pool_cell_seconds",
			"End-to-end wall time per cell, store lookups and queueing included.", telemetry.DurationBuckets()),
		computeSeconds: reg.Histogram("pacram_pool_compute_seconds",
			"Compute-phase wall time per computed cell.", telemetry.DurationBuckets()),
	}
}

// cellDone books one finished cell that took cell end to end.
func (m *poolMetrics) cellDone(ev Event, cell time.Duration) {
	m.outcomes[ev.Outcome()].Inc()
	m.cellSeconds.Observe(cell.Seconds())
	if ev.ComputeNanos > 0 {
		m.computeSeconds.Observe(time.Duration(ev.ComputeNanos).Seconds())
	}
}

// cellTrace accumulates one cell's span tree and writes it in one
// contiguous batch when the cell finishes. A nil *cellTrace (tracing
// off) is a no-op on every method.
type cellTrace struct {
	w    *telemetry.TraceWriter
	root telemetry.Span
	kids []telemetry.Span
}

// newCellTrace opens the root "cell" span for job index i of an
// invocation; returns nil when tracing is off.
func newCellTrace(w *telemetry.TraceWriter, traceID, key string, i int, start time.Time) *cellTrace {
	if w == nil {
		return nil
	}
	return &cellTrace{w: w, root: telemetry.Span{
		Trace: traceID,
		ID:    fmt.Sprintf("c%d", i),
		Name:  "cell",
		Cell:  key,
		Start: start.UnixNano(),
	}}
}

// now reads the clock for a phase span, and only when the span will be
// recorded: the zero time when tracing is off.
func (c *cellTrace) now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// phase records one child phase span.
func (c *cellTrace) phase(name string, start, end time.Time) {
	if c == nil {
		return
	}
	c.kids = append(c.kids, telemetry.Span{
		Trace:  c.root.Trace,
		ID:     fmt.Sprintf("%s.%d", c.root.ID, len(c.kids)+1),
		Parent: c.root.ID,
		Name:   name,
		Cell:   c.root.Cell,
		Start:  start.UnixNano(),
		End:    end.UnixNano(),
	})
}

// finish closes the root span with the cell's outcome (and the
// remote machine that executed it, which tracetool's fleet split reads
// back) and persists the tree.
func (c *cellTrace) finish(ev Event, end time.Time) {
	if c == nil {
		return
	}
	c.root.End = end.UnixNano()
	c.root.Attrs = map[string]string{"outcome": ev.Outcome()}
	if ev.Worker != "" {
		c.root.Attrs["worker"] = ev.Worker
	}
	c.w.WriteAll(append([]telemetry.Span{c.root}, c.kids...))
}
