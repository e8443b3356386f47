package telemetry

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Dec()
	g.Add(-4)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	// Cumulative: <=1 counts 0.5 and 1; <=2 adds 1.5; <=4 adds 3; +Inf adds 100.
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-106.0) > 1e-9 {
		t.Fatalf("sum = %v, want 106", s.Sum)
	}
}

func TestVecLabels(t *testing.T) {
	r := New()
	v := r.CounterVec("cells_total", "cells by outcome", "outcome")
	v.With("computed").Add(3)
	v.With("cached").Inc()
	v.With("computed").Inc()
	if got := v.With("computed").Value(); got != 4 {
		t.Fatalf("computed = %d, want 4", got)
	}
	if got := v.With("cached").Value(); got != 1 {
		t.Fatalf("cached = %d, want 1", got)
	}
}

func TestWithWrongArityPanics(t *testing.T) {
	r := New()
	v := r.CounterVec("x_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label arity")
		}
	}()
	v.With("only-one")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := New()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.Gauge("dup_total", "")
}

// TestNilSafety proves the nil-registry / nil-instrument contract the
// instrumented layers rely on: every operation is a silent no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("n_total", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	g := r.Gauge("n", "")
	g.Set(3)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	h := r.Histogram("n_seconds", "", DurationBuckets())
	h.Observe(1.5)
	cv := r.CounterVec("nv_total", "", "l")
	cv.With("x").Inc()
	r.Collect(func() []Sample { return nil })
	if got := r.gather(); got != nil {
		t.Fatalf("nil registry gather = %v, want nil", got)
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry snapshot = %v, want empty", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, want empty", buf.String())
	}
}

// TestConcurrency hammers every instrument kind from many goroutines
// while a reader snapshots concurrently; run under -race this is the
// registry's thread-safety proof. Final values are asserted exactly.
func TestConcurrency(t *testing.T) {
	r := New()
	c := r.Counter("cc_total", "")
	g := r.Gauge("cg", "")
	h := r.Histogram("ch_seconds", "", []float64{0.25, 0.5, 1})
	v := r.CounterVec("cv_total", "", "worker")

	const goroutines = 16
	const iters = 1000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Snapshot()
			var buf bytes.Buffer
			_ = r.WritePrometheus(&buf)
		}
	}()
	var workers sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		workers.Add(1)
		go func(id int) {
			defer workers.Done()
			label := string(rune('a' + id%4))
			for j := 0; j < iters; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.5)
				v.With(label).Inc()
			}
		}(i)
	}
	workers.Wait()
	close(stop)
	<-readerDone

	if got := c.Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	s := h.snapshot()
	if s.Count != goroutines*iters {
		t.Fatalf("hist count = %d, want %d", s.Count, goroutines*iters)
	}
	if math.Abs(s.Sum-0.5*goroutines*iters) > 1e-6 {
		t.Fatalf("hist sum = %v, want %v", s.Sum, 0.5*goroutines*iters)
	}
	var total int64
	for _, l := range []string{"a", "b", "c", "d"} {
		total += v.With(l).Value()
	}
	if total != goroutines*iters {
		t.Fatalf("vec total = %d, want %d", total, goroutines*iters)
	}
}

// TestPrometheusExpositionGolden pins the exact exposition bytes for a
// registry covering every instrument kind, label escaping, histograms
// and a scrape-time collector. Output must be deterministic (sorted by
// family name, then label key) for this to hold.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := New()
	c := r.Counter("pacram_demo_cells_total", "Cells processed.")
	c.Add(7)
	g := r.Gauge("pacram_demo_inflight", "In-flight cells.")
	g.Set(2)
	h := r.Histogram("pacram_demo_seconds", "Cell latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(3)
	v := r.CounterVec("pacram_demo_outcomes_total", "Cells by outcome.", "outcome")
	v.With("computed").Add(5)
	v.With("cached").Add(2)
	r.Collect(func() []Sample {
		return []Sample{
			{Name: "pacram_demo_escaped", Type: TypeGauge, Help: "Help with \\ and\nnewline.",
				Labels: []Label{{Name: "path", Value: "C:\\tmp\n\"x\""}}, Value: 1},
			{Name: "pacram_demo_store_hits_total", Type: TypeCounter, Help: "Store hits.",
				Labels: []Label{{Name: "tier", Value: "mem"}}, Value: 4},
			{Name: "pacram_demo_store_hits_total", Type: TypeCounter,
				Labels: []Label{{Name: "tier", Value: "disk"}}, Value: 1},
		}
	})

	const want = `# HELP pacram_demo_cells_total Cells processed.
# TYPE pacram_demo_cells_total counter
pacram_demo_cells_total 7
# HELP pacram_demo_escaped Help with \\ and\nnewline.
# TYPE pacram_demo_escaped gauge
pacram_demo_escaped{path="C:\\tmp\n\"x\""} 1
# HELP pacram_demo_inflight In-flight cells.
# TYPE pacram_demo_inflight gauge
pacram_demo_inflight 2
# HELP pacram_demo_outcomes_total Cells by outcome.
# TYPE pacram_demo_outcomes_total counter
pacram_demo_outcomes_total{outcome="cached"} 2
pacram_demo_outcomes_total{outcome="computed"} 5
# HELP pacram_demo_seconds Cell latency.
# TYPE pacram_demo_seconds histogram
pacram_demo_seconds_bucket{le="0.5"} 1
pacram_demo_seconds_bucket{le="1"} 2
pacram_demo_seconds_bucket{le="+Inf"} 3
pacram_demo_seconds_sum 4
pacram_demo_seconds_count 3
# HELP pacram_demo_store_hits_total Store hits.
# TYPE pacram_demo_store_hits_total counter
pacram_demo_store_hits_total{tier="disk"} 1
pacram_demo_store_hits_total{tier="mem"} 4
`
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// A second scrape must be byte-identical: gathering is read-only.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatalf("WritePrometheus (second): %v", err)
	}
	if buf2.String() != buf.String() {
		t.Fatal("second scrape differs from first")
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := New()
	r.Counter("a_total", "ha").Add(3)
	r.Histogram("b_seconds", "hb", []float64{1}).Observe(0.5)
	v := r.CounterVec("c", "hc", "k")
	v.With("x").Add(9)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("families = %d, want 3", len(snap))
	}
	if snap[0].Name != "a_total" || snap[0].Type != TypeCounter {
		t.Fatalf("family 0 = %+v", snap[0])
	}
	if snap[0].Series[0].Value == nil || *snap[0].Series[0].Value != 3 {
		t.Fatalf("a_total value = %+v", snap[0].Series[0])
	}
	if snap[1].Series[0].Histogram == nil || snap[1].Series[0].Histogram.Count != 1 {
		t.Fatalf("b_seconds histogram = %+v", snap[1].Series[0])
	}
	if snap[2].Series[0].Labels["k"] != "x" || *snap[2].Series[0].Value != 9 {
		t.Fatalf("c series = %+v", snap[2].Series[0])
	}
}

func TestDurationBuckets(t *testing.T) {
	b := DurationBuckets()
	if len(b) == 0 || b[0] != 0.001 {
		t.Fatalf("buckets = %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] != b[i-1]*2 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], b[i-1]*2)
		}
	}
	if b[len(b)-1] >= 20 {
		t.Fatalf("last bucket %v should be < 20", b[len(b)-1])
	}
	// Doubled bounds must render cleanly in exposition label values.
	if got := formatValue(b[len(b)-1]); got != "16.384" {
		t.Fatalf("last bucket renders %q, want \"16.384\"", got)
	}
}
