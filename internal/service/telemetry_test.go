package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pacram/internal/runner"
	"pacram/internal/scenario"
	"pacram/internal/telemetry"
)

// newObservedServer builds a server with the given extra config tweaks
// applied and returns it with its base URL and a client.
func newObservedServer(t *testing.T, mutate func(*Config)) (*Server, string, *Client) {
	t.Helper()
	cfg := Config{Workers: 2, CacheDir: t.TempDir()}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs.URL, NewClient(hs.URL)
}

// familyValue sums a family's series values in a JSON snapshot,
// optionally filtered to one label value. Missing family = 0.
func familyValue(snap []telemetry.FamilySnapshot, name, labelName, labelValue string) float64 {
	var sum float64
	for _, fam := range snap {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Series {
			if labelName != "" && s.Labels[labelName] != labelValue {
				continue
			}
			if s.Value != nil {
				sum += *s.Value
			} else if s.Histogram != nil {
				sum += float64(s.Histogram.Count)
			}
		}
	}
	return sum
}

// TestMetricsEndpointsReconcile is the scrape-consistency check the CI
// smoke job also performs against a live daemon: after two submissions
// of the same spec, the registry's pool outcome counters must sum to
// the jobs' total cell count, the job lifecycle counters must match
// the submissions, the plan cache's hits and misses must sum to the
// spec resolves (submit, validate and execute), and both read surfaces
// (Prometheus text and JSON) must serve the same registry.
func TestMetricsEndpointsReconcile(t *testing.T) {
	_, base, client := newObservedServer(t, nil)
	raw, err := overlappingSpec("observed", []int{128, 256})
	if err != nil {
		t.Fatal(err)
	}
	var totalCells int
	var second *JobStatus
	for i := 0; i < 2; i++ {
		final, _, _ := runAndFetch(t, client, SubmitRequest{Spec: raw})
		totalCells += final.Cells
		second = final
	}
	// The rerun is served from the store, which the outcome split must
	// reflect.
	if second.Cached == 0 {
		t.Fatalf("second submission hit no cache: %+v", second)
	}
	// Every spec resolve — submit, validate and a fabric execute of the
	// same document — is one plan cache lookup: a hit or a miss.
	resolves := 2
	for _, req := range []SubmitRequest{{Scenario: "refresh-stress"}, {Spec: raw}, {Scenario: "no-such"}} {
		if _, err := client.Validate(req); (err != nil) != (req.Scenario == "no-such") {
			t.Fatalf("validate %+v: %v", req, err)
		}
		resolves++
	}
	sp, err := scenario.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	exec, err := json.Marshal(ExecuteRequest{Spec: raw, Key: plan.Cells()[0].Key, Fingerprint: "scenario:v1"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+pathFabricExecute, "application/json", bytes.NewReader(exec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %s", resp.Status)
	}
	resolves++
	totalCells++ // the executed cell ran on the same pool

	snap, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	outcomes := familyValue(snap, "pacram_pool_cells_total", "", "")
	if int(outcomes) != totalCells {
		t.Errorf("pool outcome counters sum to %v, jobs ran %d cells", outcomes, totalCells)
	}
	if got := familyValue(snap, "pacram_pool_cells_total", "outcome", runner.OutcomeComputed); got == 0 {
		t.Error("no computed cells counted")
	}
	if got := familyValue(snap, "pacram_pool_cells_total", "outcome", runner.OutcomeCached); got == 0 {
		t.Error("no cached cells counted")
	}
	if got := familyValue(snap, "pacram_jobs_submitted_total", "", ""); got != 2 {
		t.Errorf("jobs submitted = %v, want 2", got)
	}
	if got := familyValue(snap, "pacram_jobs_finished_total", "state", StateDone); got != 2 {
		t.Errorf("jobs finished done = %v, want 2", got)
	}
	if got := familyValue(snap, "pacram_jobs_running", "", ""); got != 0 {
		t.Errorf("jobs running = %v, want 0", got)
	}
	hits := familyValue(snap, "pacram_plan_cache_hits_total", "", "")
	misses := familyValue(snap, "pacram_plan_cache_misses_total", "", "")
	if int(hits+misses) != resolves {
		t.Errorf("plan cache hits %v + misses %v, want %d resolves", hits, misses, resolves)
	}
	// Only the first submission and the unknown name missed.
	if misses != 2 {
		t.Errorf("plan cache misses = %v, want 2", misses)
	}
	// The store collector surfaces the tier counters; the disk tier saw
	// at least the second job's hits.
	if got := familyValue(snap, "pacram_store_hits_total", "", ""); got == 0 {
		t.Error("store collector reported no hits")
	}

	// The Prometheus surface serves the same registry as text. The SSE
	// handler drops its subscriber gauge only after flushing the final
	// event the client has already read, so the gauge may lag the
	// stream's end briefly: poll until it reads 0, within a deadline.
	var body []byte
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("content type %q", ct)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(body), "pacram_sse_subscribers 0") || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, series := range []string{
		"# TYPE pacram_pool_cells_total counter",
		"pacram_pool_cells_total{outcome=\"computed\"}",
		"pacram_pool_workers 2",
		"pacram_jobs_submitted_total 2",
		"pacram_store_hits_total{tier=",
		"pacram_pool_cell_seconds_bucket{le=",
		"pacram_sse_subscribers 0",
		fmt.Sprintf("pacram_plan_cache_hits_total %v", hits),
		fmt.Sprintf("pacram_plan_cache_misses_total %v", misses),
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics is missing %q\n%s", series, body)
		}
	}
}

// TestCellEventDurations pins the duration surface: per-cell wait and
// compute times ride the SSE events, computed cells report nonzero
// compute, store-served cells report none, and the finished status
// totals equal the event sums.
func TestCellEventDurations(t *testing.T) {
	_, base, client := newObservedServer(t, nil)
	raw, err := overlappingSpec("durations", []int{128, 256})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Submit(SubmitRequest{Spec: raw})
	if err != nil {
		t.Fatal(err)
	}
	var events []CellEvent
	final, err := client.Watch(context.Background(), st.ID, func(ev CellEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	var wait, compute int64
	for _, ev := range events {
		computed := !ev.Cached && !ev.Coalesced
		if computed && ev.ComputeMicros <= 0 {
			t.Errorf("computed cell %s reports compute %dµs", ev.Key, ev.ComputeMicros)
		}
		if ev.Cached && ev.ComputeMicros != 0 {
			t.Errorf("cached cell %s reports compute %dµs", ev.Key, ev.ComputeMicros)
		}
		wait += ev.WaitMicros
		compute += ev.ComputeMicros
	}
	if compute == 0 {
		t.Fatal("no compute time recorded across the job")
	}
	if final.WaitMicros != wait || final.ComputeMicros != compute {
		t.Errorf("status totals wait=%d compute=%d, events sum to wait=%d compute=%d",
			final.WaitMicros, final.ComputeMicros, wait, compute)
	}

	// Wire shape: the additive fields appear under their JSON names in
	// the status payload.
	resp, err := http.Get(base + pathJobs + "/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{`"computeMicros"`}
	// waitMicros is omitempty: an uncontended pool can legitimately
	// total zero wait, in which case the key is absent by design.
	if final.WaitMicros > 0 {
		keys = append(keys, `"waitMicros"`)
	}
	for _, key := range keys {
		if !strings.Contains(string(body), key) {
			t.Errorf("status JSON is missing %s: %s", key, body)
		}
	}
}

// TestJobTraceFile runs a job with TraceDir set and validates the
// recorded span trees: one root per cell carrying the job ID and an
// outcome, children nested inside their root's interval with the
// compute phase present exactly on computed cells.
func TestJobTraceFile(t *testing.T) {
	dir := t.TempDir()
	_, _, client := newObservedServer(t, func(c *Config) { c.TraceDir = dir })
	raw, err := overlappingSpec("traced", []int{128, 256})
	if err != nil {
		t.Fatal(err)
	}
	final, _, _ := runAndFetch(t, client, SubmitRequest{Spec: raw})

	f, err := os.Open(filepath.Join(dir, final.ID+".trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := telemetry.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}

	roots := map[string]telemetry.Span{}
	children := map[string][]telemetry.Span{}
	for _, s := range spans {
		if s.Trace != final.ID {
			t.Fatalf("span %s carries trace %q, want %q", s.ID, s.Trace, final.ID)
		}
		if s.Parent == "" {
			roots[s.ID] = s
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	if len(roots) != final.Cells {
		t.Fatalf("trace has %d root spans for %d cells", len(roots), final.Cells)
	}
	for id, root := range roots {
		if root.Name != "cell" || root.Cell == "" {
			t.Fatalf("bad root span %+v", root)
		}
		outcome := root.Attrs["outcome"]
		var hasCompute bool
		for _, c := range children[id] {
			if c.Start < root.Start || c.End > root.End {
				t.Errorf("child %s [%d,%d] outside root %s [%d,%d]",
					c.Name, c.Start, c.End, id, root.Start, root.End)
			}
			if c.Name == "compute" {
				hasCompute = true
			}
		}
		if (outcome == runner.OutcomeComputed) != hasCompute {
			t.Errorf("root %s outcome %q but compute-phase presence is %v", id, outcome, hasCompute)
		}
	}
}

// TestStructuredLogging captures the server's slog stream over a job
// lifecycle and checks the lifecycle events carry their identifying
// attributes.
func TestStructuredLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&syncWriter{w: &buf}, nil))
	srv, _, client := newObservedServer(t, func(c *Config) { c.Logger = logger })
	raw, err := overlappingSpec("logged", []int{64})
	if err != nil {
		t.Fatal(err)
	}
	final, _, _ := runAndFetch(t, client, SubmitRequest{Spec: raw})
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"job accepted", "job done", "job=" + final.ID,
		"scenario=logged", "draining", "drained",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log is missing %q:\n%s", want, out)
		}
	}
}

// syncWriter serializes writes: the job goroutine and the test
// goroutine both log.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
