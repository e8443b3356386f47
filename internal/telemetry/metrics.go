// Package telemetry is the dependency-free observability substrate:
// a metrics registry (counters, gauges and fixed-bucket histograms;
// counters optionally labelled, and scrape-time collectors for other
// labelled samples) plus a span/trace recorder persisting per-cell
// phase timings as JSONL.
//
// Two properties shape the API:
//
//   - Passivity. Recording telemetry never changes what the
//     instrumented code computes — instruments are plain atomics, and
//     the scenario parity suites run with telemetry enabled to prove
//     output bytes are unchanged.
//   - Nil safety. A nil *Registry hands out nil instruments, and every
//     instrument method is a no-op on a nil receiver. Instrumented code
//     therefore carries no "is telemetry on?" branches: uninstrumented
//     callers pay one nil check per operation and nothing else.
//
// The registry serves two read surfaces: Prometheus text exposition
// (WritePrometheus, served by pacramd at GET /metrics) and a JSON
// snapshot (Snapshot, served at /api/v1/metrics).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type names, used in exposition and snapshots.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets (cumulative, like
// Prometheus: bucket i counts observations <= bounds[i], with an
// implicit +Inf bucket) and tracks their sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// NewHistogram returns a standalone histogram, registered nowhere —
// for callers (the sim profiler) that want the bucketing machinery
// without a registry.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// HistogramSnapshot is a histogram's point-in-time state.
type HistogramSnapshot struct {
	// Bounds are the upper bucket bounds; Counts[i] is the number of
	// observations <= Bounds[i] cumulatively, with Counts[len(Bounds)]
	// the total (the +Inf bucket).
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot returns the histogram's point-in-time cumulative state; a
// nil histogram snapshots to the zero value.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.snapshot()
}

// snapshot returns the cumulative view Prometheus exposition wants.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Counts[i] = cum
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// DurationBuckets is the standard latency bucket layout, in seconds:
// 1ms to ~16s in powers of two. One fixed layout keeps every duration
// histogram comparable and the exposition size bounded.
func DurationBuckets() []float64 {
	out := make([]float64, 0, 15)
	for v := 0.001; v < 20; v *= 2 {
		out = append(out, v)
	}
	return out
}

// family is one named metric with zero or more label dimensions.
type family struct {
	name   string
	help   string
	typ    string
	labels []string
	bounds []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // label-value key → *Counter | *Gauge | *Histogram
	order  []string
}

// newSeries constructs the family's instrument type.
func (f *family) newSeries() any {
	switch f.typ {
	case TypeCounter:
		return &Counter{}
	case TypeGauge:
		return &Gauge{}
	default:
		return &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
	}
}

// with returns the series for the given label values, creating it on
// first use.
func (f *family) with(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s has labels %v, got %d values", f.name, f.labels, len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = f.newSeries()
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Registry holds a process's (or server's) metric families. The zero
// value is not usable; construct with New. A nil *Registry is a valid
// no-op registry: it hands out nil instruments.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	collectors []Collector
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register creates a family, panicking on a name collision — metric
// names are an API, and two owners for one name is a programming
// error worth failing loudly at construction time.
func (r *Registry) register(name, help, typ string, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("telemetry: metric %s registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, bounds: bounds,
		series: make(map[string]any)}
	r.families[name] = f
	return f
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, TypeCounter, nil, nil).with(nil).(*Counter)
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, TypeGauge, nil, nil).with(nil).(*Gauge)
}

// Histogram registers an unlabeled histogram with the given upper
// bucket bounds (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, TypeHistogram, nil, bounds).with(nil).(*Histogram)
}

// CounterVec registers a counter family with label dimensions.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r.register(name, help, TypeCounter, labels, nil)}
}

// CounterVec hands out per-label-value counters.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label,
// in registration order).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.with(values).(*Counter)
}

// Label is one label name/value pair on a collector sample.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Sample is one scalar series contributed by a Collector at scrape
// time.
type Sample struct {
	// Name and Type identify the series' family; Help documents it
	// (the first sample of a name wins).
	Name string
	Type string // TypeCounter or TypeGauge
	Help string
	// Labels qualify the series.
	Labels []Label
	Value  float64
}

// Collector contributes samples computed at scrape time. It is how
// subsystems that already keep their own counters (the result-store
// tiers' TierStats above all) surface them in the registry without
// double-booking: the existing counters stay the single source of
// truth and the registry samples them on demand.
type Collector func() []Sample

// Collect registers a scrape-time collector.
func (r *Registry) Collect(c Collector) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}
