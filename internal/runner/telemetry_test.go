package runner_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pacram/internal/runner"
	"pacram/internal/runner/storetest"
	"pacram/internal/telemetry"
)

type telemResult struct {
	Key   string
	Value uint64
}

func telemJobs(n int, compute time.Duration) []runner.Job[telemResult] {
	jobs := make([]runner.Job[telemResult], n)
	for i := range jobs {
		jobs[i] = runner.Job[telemResult]{Key: "telem/" + string(rune('a'+i)), Run: func(c runner.Ctx) (telemResult, error) {
			time.Sleep(compute)
			return telemResult{Key: c.Key, Value: c.Seed}, nil
		}}
	}
	return jobs
}

// metricValue digs one series out of a registry snapshot: the scalar
// value for counters/gauges, the observation count for histograms.
func metricValue(t *testing.T, reg *telemetry.Registry, name string, labels map[string]string) float64 {
	t.Helper()
	for _, fam := range reg.Snapshot() {
		if fam.Name != name {
			continue
		}
	series:
		for _, s := range fam.Series {
			for k, v := range labels {
				if s.Labels[k] != v {
					continue series
				}
			}
			if len(s.Labels) != len(labels) {
				continue
			}
			if s.Histogram != nil {
				return float64(s.Histogram.Count)
			}
			return *s.Value
		}
	}
	t.Fatalf("series %s%v not found", name, labels)
	return 0
}

// TestPoolMetricsAndEventDurations runs the same jobs twice over one
// instrumented pool and store and checks the registry's outcome
// accounting and the per-event durations: first pass all computed,
// second pass all cached, gauges drained back to zero.
func TestPoolMetricsAndEventDurations(t *testing.T) {
	reg := telemetry.New()
	pool := runner.NewPool[telemResult](2)
	pool.Instrument(reg)
	store := runner.NewMemStore(0)

	var mu sync.Mutex
	var events []runner.Event
	opt := runner.Options{Seed: 5, Fingerprint: "telem:v1", Store: store,
		OnEvent: func(ev runner.Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}}

	const cells = 4
	if _, err := pool.Run(opt, telemJobs(cells, 2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Cached || ev.Coalesced {
			t.Fatalf("first pass produced non-computed event %+v", ev)
		}
		if ev.ComputeNanos <= 0 {
			t.Fatalf("computed event has ComputeNanos = %d, want > 0", ev.ComputeNanos)
		}
		if ev.WaitNanos < 0 {
			t.Fatalf("negative WaitNanos on %+v", ev)
		}
	}
	if got := metricValue(t, reg, "pacram_pool_workers", nil); got != 2 {
		t.Fatalf("workers gauge = %v, want 2", got)
	}
	if got := metricValue(t, reg, "pacram_pool_cells_total", map[string]string{"outcome": "computed"}); got != cells {
		t.Fatalf("computed = %v, want %d", got, cells)
	}
	if got := metricValue(t, reg, "pacram_pool_compute_seconds", nil); got != cells {
		t.Fatalf("compute histogram count = %v, want %d", got, cells)
	}

	events = nil
	if _, err := pool.Run(opt, telemJobs(cells, 2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if !ev.Cached {
			t.Fatalf("second pass produced non-cached event %+v", ev)
		}
		if ev.ComputeNanos != 0 {
			t.Fatalf("cached event has ComputeNanos = %d, want 0", ev.ComputeNanos)
		}
	}
	if got := metricValue(t, reg, "pacram_pool_cells_total", map[string]string{"outcome": "cached"}); got != cells {
		t.Fatalf("cached = %v, want %d", got, cells)
	}
	if got := metricValue(t, reg, "pacram_pool_cell_seconds", nil); got != 2*cells {
		t.Fatalf("cell histogram count = %v, want %d", got, 2*cells)
	}
	if got := metricValue(t, reg, "pacram_pool_compute_seconds", nil); got != cells {
		t.Fatalf("compute histogram count after cached pass = %v, want %d", got, cells)
	}
	for _, gauge := range []string{"pacram_pool_wait_cells", "pacram_pool_inflight_cells"} {
		if got := metricValue(t, reg, gauge, nil); got != 0 {
			t.Fatalf("%s = %v after runs, want 0", gauge, got)
		}
	}
}

// spansByCell groups a trace's root spans and their children.
func spansByCell(t *testing.T, spans []telemetry.Span) map[string][]telemetry.Span {
	t.Helper()
	roots := make(map[string]telemetry.Span) // span ID → root
	kids := make(map[string][]telemetry.Span)
	for _, s := range spans {
		if s.Parent == "" {
			if s.Name != "cell" {
				t.Fatalf("root span named %q, want cell", s.Name)
			}
			roots[s.ID] = s
		}
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		root, ok := roots[s.Parent]
		if !ok {
			t.Fatalf("span %s has unknown parent %s", s.ID, s.Parent)
		}
		if s.Cell != root.Cell || s.Trace != root.Trace {
			t.Fatalf("child %+v disagrees with root %+v", s, root)
		}
		if s.Start < root.Start || s.End > root.End {
			t.Fatalf("child %s [%d,%d] outside root [%d,%d]", s.ID, s.Start, s.End, root.Start, root.End)
		}
		kids[root.Cell] = append(kids[root.Cell], s)
	}
	byCell := make(map[string][]telemetry.Span)
	for _, r := range roots {
		byCell[r.Cell] = append([]telemetry.Span{r}, kids[r.Cell]...)
	}
	return byCell
}

func phaseNames(spans []telemetry.Span) []string {
	var out []string
	for _, s := range spans[1:] {
		out = append(out, s.Name)
	}
	return out
}

// TestPoolTraceSpans checks the recorded span trees phase by phase:
// computed cells walk store-get → pool-wait → compute → store-put,
// cached cells record just the store-get, storeless runs skip the
// store phases entirely.
func TestPoolTraceSpans(t *testing.T) {
	store := runner.NewMemStore(0)
	pool := runner.NewPool[telemResult](2)
	const cells = 3

	run := func(traceID string, store runner.Store) []telemetry.Span {
		var buf bytes.Buffer
		tw := telemetry.NewTraceWriter(&buf)
		opt := runner.Options{Seed: 7, Fingerprint: "trace:v1", Store: store,
			Trace: tw, TraceID: traceID}
		if _, err := pool.Run(opt, telemJobs(cells, time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatalf("trace close: %v", err)
		}
		spans, err := telemetry.ReadSpans(&buf)
		if err != nil {
			t.Fatalf("ReadSpans: %v", err)
		}
		for _, s := range spans {
			if s.Trace != traceID {
				t.Fatalf("span %+v has trace %q, want %q", s, s.Trace, traceID)
			}
			if s.End < s.Start {
				t.Fatalf("span %+v ends before it starts", s)
			}
		}
		return spans
	}

	computed := spansByCell(t, run("first", store))
	if len(computed) != cells {
		t.Fatalf("computed pass traced %d cells, want %d", len(computed), cells)
	}
	for cell, spans := range computed {
		if got := spans[0].Attrs["outcome"]; got != "computed" {
			t.Fatalf("cell %s outcome %q, want computed", cell, got)
		}
		want := []string{"store-get", "pool-wait", "compute", "store-put"}
		if got := phaseNames(spans); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("cell %s phases %v, want %v", cell, got, want)
		}
	}

	cached := spansByCell(t, run("second", store))
	for cell, spans := range cached {
		if got := spans[0].Attrs["outcome"]; got != "cached" {
			t.Fatalf("cell %s outcome %q, want cached", cell, got)
		}
		if got := phaseNames(spans); strings.Join(got, ",") != "store-get" {
			t.Fatalf("cached cell %s phases %v, want [store-get]", cell, got)
		}
	}

	storeless := spansByCell(t, run("third", nil))
	for cell, spans := range storeless {
		want := []string{"pool-wait", "compute"}
		if got := phaseNames(spans); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("storeless cell %s phases %v, want %v", cell, got, want)
		}
	}
}

// TestOnWarningStructured injects store failures and checks the
// structured warning surface: OnWarning takes precedence over
// Progress, carries cell/op/location fields, and Message() renders
// the exact legacy text.
func TestOnWarningStructured(t *testing.T) {
	flaky := &storetest.Flaky{Inner: runner.NewMemStore(0)}
	flaky.FailGets(-1, errors.New("origin down"))
	flaky.FailPuts(-1, errors.New("origin down"))

	var mu sync.Mutex
	var warnings []runner.Warning
	var progress strings.Builder
	opt := runner.Options{Workers: 2, Seed: 3, Fingerprint: "warn:v1", Store: flaky,
		OnWarning: func(w runner.Warning) {
			mu.Lock()
			warnings = append(warnings, w)
			mu.Unlock()
		},
		Progress: &progress}
	const cells = 3
	if _, err := runner.Run(opt, telemJobs(cells, 0)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(progress.String(), "warning") {
		t.Fatalf("Progress got warnings despite OnWarning being set: %q", progress.String())
	}
	var gets, puts int
	for _, w := range warnings {
		switch w.Op {
		case "get":
			gets++
			var ce *runner.CellError
			if !errors.As(w.Err, &ce) {
				t.Fatalf("get warning error is %T, want *runner.CellError", w.Err)
			}
			if ce.Cell != w.Cell || w.Cell == "" {
				t.Fatalf("warning cell %q vs error cell %q", w.Cell, ce.Cell)
			}
			if !strings.HasPrefix(w.Message(), "runner: warning: degraded cache read for cell ") {
				t.Fatalf("get message %q", w.Message())
			}
		case "put":
			puts++
			if !strings.HasPrefix(w.Message(), "runner: warning: cannot cache "+w.Cell) {
				t.Fatalf("put message %q", w.Message())
			}
		default:
			t.Fatalf("unknown warning op %q", w.Op)
		}
	}
	if gets != cells || puts != cells {
		t.Fatalf("got %d get / %d put warnings, want %d each", gets, puts, cells)
	}
}

// TestOnWarningCorruptEntryLocation corrupts a disk entry and checks
// the structured warning points Location at the file that needs
// deleting, matching what the text warning always said.
func TestOnWarningCorruptEntryLocation(t *testing.T) {
	dir := t.TempDir()
	store, err := runner.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := runner.Options{Workers: 1, Seed: 11, Fingerprint: "loc:v1", Store: store}
	if _, err := runner.Run(opt, telemJobs(1, 0)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files = %v (err %v), want exactly one", files, err)
	}
	if err := os.WriteFile(files[0], []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []runner.Warning
	opt.OnWarning = func(w runner.Warning) { warnings = append(warnings, w) }
	if _, err := runner.Run(opt, telemJobs(1, 0)); err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 {
		t.Fatalf("got %d warnings, want 1: %+v", len(warnings), warnings)
	}
	w := warnings[0]
	if w.Op != "get" || w.Location != files[0] {
		t.Fatalf("warning = %+v, want op get at %s", w, files[0])
	}
	if !strings.Contains(w.Message(), files[0]) {
		t.Fatalf("message %q does not name %s", w.Message(), files[0])
	}
}
