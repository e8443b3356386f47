package runner

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mixResult is a representative JSON-round-trippable job result.
type mixResult struct {
	Key    string
	Values []float64
	Count  uint64
}

// compute derives a result from the job's own seed only, so any
// scheduling-order dependence would show up as a mismatch between
// worker counts.
func compute(c Ctx) (mixResult, error) {
	r := mixResult{Key: c.Key, Count: c.Seed % 1000}
	x := c.Seed
	for i := 0; i < 8; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		r.Values = append(r.Values, float64(x%100000)/1000)
	}
	return r, nil
}

func testJobs(n int) []Job[mixResult] {
	jobs := make([]Job[mixResult], n)
	for i := range jobs {
		jobs[i] = Job[mixResult]{Key: fmt.Sprintf("cell/%d", i), Run: compute}
	}
	return jobs
}

func TestParallelMatchesSerial(t *testing.T) {
	serial, err := Run(Options{Workers: 1, Seed: 42}, testJobs(37))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 64} {
		par, err := Run(Options{Workers: workers, Seed: 42}, testJobs(37))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("results differ between 1 and %d workers", workers)
		}
	}
}

func TestJobSeedDeterministicAndKeyed(t *testing.T) {
	if JobSeed(7, "a") != JobSeed(7, "a") {
		t.Fatal("seed not deterministic")
	}
	if JobSeed(7, "a") == JobSeed(7, "b") {
		t.Fatal("distinct keys share a seed")
	}
	if JobSeed(7, "a") == JobSeed(8, "a") {
		t.Fatal("distinct base seeds share a job seed")
	}
}

func TestCacheHitSkipsRecompute(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	jobs := func() []Job[mixResult] {
		js := testJobs(12)
		for i := range js {
			inner := js[i].Run
			js[i].Run = func(c Ctx) (mixResult, error) {
				executions.Add(1)
				return inner(c)
			}
		}
		return js
	}
	opt := Options{Workers: 4, Seed: 42, Store: store, Fingerprint: "test:v1"}

	cold, err := Run(opt, jobs())
	if err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 12 {
		t.Fatalf("cold run executed %d jobs, want 12", got)
	}
	warm, err := Run(opt, jobs())
	if err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 12 {
		t.Fatalf("warm run recomputed: %d total executions, want 12", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cached results differ from computed ones")
	}
	if hits := store.Stats().Hits; hits != 12 {
		t.Fatalf("cache reports %d hits, want 12", hits)
	}

	// A different fingerprint must miss the cache entirely.
	opt.Fingerprint = "test:v2"
	if _, err := Run(opt, jobs()); err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 24 {
		t.Fatalf("fingerprint change did not recompute: %d executions, want 24", got)
	}
}

func TestStoreFailureDegradesToWarning(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the store: every write now
	// fails, which must cost a warning, not the run.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := Run(Options{Workers: 2, Seed: 42, Store: store, Progress: &buf}, testJobs(6))
	if err != nil {
		t.Fatalf("store failure aborted the run: %v", err)
	}
	if len(res) != 6 {
		t.Fatalf("got %d results, want 6", len(res))
	}
	if !strings.Contains(buf.String(), "cannot cache") {
		t.Fatalf("missing store warning in %q", buf.String())
	}

	// An OnWarning hook (the sweep service's logger) takes precedence
	// over Progress, so headless callers see the degradation too.
	var warned string
	var mu sync.Mutex
	_, err = Run(Options{Workers: 2, Seed: 42, Store: store, OnWarning: func(w Warning) {
		mu.Lock()
		warned = w.Message()
		mu.Unlock()
	}}, testJobs(6))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warned, "cannot cache") {
		t.Fatalf("OnWarning not invoked on store failure: %q", warned)
	}
}

func TestFailingJobSurfacesWithoutDeadlock(t *testing.T) {
	boom := errors.New("boom")
	jobs := testJobs(64)
	jobs[13].Run = func(Ctx) (mixResult, error) { return mixResult{}, boom }

	done := make(chan error, 1)
	go func() {
		_, err := Run(Options{Workers: 4, Seed: 1}, jobs)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want the job's error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked on a failing job")
	}
}

func TestFirstErrorByJobOrderWins(t *testing.T) {
	jobs := testJobs(16)
	for _, i := range []int{3, 9, 14} {
		jobs[i].Run = func(Ctx) (mixResult, error) {
			return mixResult{}, fmt.Errorf("job %d failed", i)
		}
	}
	// Whatever subset of the failures executes before dispatch stops,
	// the reported error must be the lowest-index one (job 3 always
	// runs, at any worker count).
	for _, workers := range []int{1, 8} {
		_, err := Run(Options{Workers: workers, Seed: 1}, jobs)
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: got %v, want job 3's error", workers, err)
		}
	}
}

func TestDuplicateKeyRejectedAndMatrixDedupes(t *testing.T) {
	dup := []Job[mixResult]{
		{Key: "x", Run: compute},
		{Key: "x", Run: compute},
	}
	if _, err := Run(Options{Workers: 1}, dup); err == nil {
		t.Fatal("duplicate keys not rejected")
	}

	m := NewMatrix[mixResult]()
	var calls int
	for i := 0; i < 5; i++ {
		m.Add("x", func(c Ctx) (mixResult, error) {
			calls++
			return compute(c)
		})
	}
	m.Add("y", compute)
	if m.Len() != 2 {
		t.Fatalf("matrix kept %d jobs, want 2", m.Len())
	}
	if _, err := Run(Options{Workers: 2}, m.Jobs()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("deduplicated job ran %d times, want 1", calls)
	}
}

func TestProgressStreams(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(Options{Workers: 2, Label: "demo", Progress: &buf}, testJobs(5))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo: 5 jobs done") {
		t.Fatalf("missing final progress line in %q", out)
	}
}

func TestEmptyMatrix(t *testing.T) {
	res, err := Run[mixResult](Options{Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty matrix returned %d results", len(res))
	}
}
