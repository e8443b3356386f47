package runner_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pacram/internal/runner"
	"pacram/internal/runner/storetest"
)

// flakyResult mirrors the runner package's internal test result shape.
type flakyResult struct {
	Key   string
	Value uint64
}

func flakyJobs(n int) []runner.Job[flakyResult] {
	jobs := make([]runner.Job[flakyResult], n)
	for i := range jobs {
		jobs[i] = runner.Job[flakyResult]{Key: fmt.Sprintf("cell/%d", i), Run: func(c runner.Ctx) (flakyResult, error) {
			return flakyResult{Key: c.Key, Value: c.Seed ^ 0x9e3779b97f4a7c15}, nil
		}}
	}
	return jobs
}

// warnCollector counts degradation warnings by kind.
type warnCollector struct {
	mu    sync.Mutex
	lines []string
}

func (w *warnCollector) onWarning(warning runner.Warning) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lines = append(w.lines, warning.Message())
}

func (w *warnCollector) count(substr string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, l := range w.lines {
		if strings.Contains(l, substr) {
			n++
		}
	}
	return n
}

// TestFlakyRemoteTierDegradesToComputeWithIdenticalResults runs a
// sweep over a tiered store whose slow tier fails every operation: the
// results must be identical to a storeless run, every failing
// operation must cost exactly one warning, and the healthy disk tier
// must still be populated.
func TestFlakyRemoteTierDegradesToComputeWithIdenticalResults(t *testing.T) {
	const cells = 6
	baseline, err := runner.Run(runner.Options{Workers: 2, Seed: 9}, flakyJobs(cells))
	if err != nil {
		t.Fatal(err)
	}

	disk, err := runner.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &storetest.Flaky{Inner: runner.NewMemStore(0)}
	flaky.FailGets(-1, errors.New("origin unreachable"))
	flaky.FailPuts(-1, errors.New("origin unreachable"))
	store := runner.NewTiered(disk, flaky)

	var w warnCollector
	opt := runner.Options{Workers: 2, Seed: 9, Fingerprint: "flaky:v1", Store: store, OnWarning: w.onWarning}
	res, err := runner.Run(opt, flakyJobs(cells))
	if err != nil {
		t.Fatalf("degrading tier aborted the run: %v", err)
	}
	if !reflect.DeepEqual(res, baseline) {
		t.Fatal("results over a degrading store differ from the storeless baseline")
	}
	// Each cell's read degraded once (disk miss + flaky error) and its
	// write degraded once (disk ok + flaky error): one warning each.
	if got := w.count("degraded cache read"); got != cells {
		t.Fatalf("got %d read-degradation warnings, want %d (one per failing get):\n%s",
			got, cells, strings.Join(w.lines, "\n"))
	}
	if got := w.count("cannot cache"); got != cells {
		t.Fatalf("got %d write-degradation warnings, want %d (one per failing put):\n%s",
			got, cells, strings.Join(w.lines, "\n"))
	}

	// The healthy tier still holds every cell: a second run is served
	// entirely from disk and the dead tier is not even consulted (the
	// fast tier answers first).
	warm, err := runner.Run(opt, flakyJobs(cells))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, baseline) {
		t.Fatal("warm results differ from the storeless baseline")
	}
	if hits := disk.Stats().Hits; hits != cells {
		t.Fatalf("disk tier served %d hits on the warm run, want %d", hits, cells)
	}
}

// TestFlakyFailureCountsMatchWarningCounts injects a bounded number of
// failures and checks the warning count tracks it exactly: per
// failure, not once per run and not once per cell.
func TestFlakyFailureCountsMatchWarningCounts(t *testing.T) {
	flaky := &storetest.Flaky{Inner: runner.NewMemStore(0)}
	flaky.FailGets(2, errors.New("transient read fault"))
	flaky.FailPuts(3, errors.New("transient write fault"))

	var w warnCollector
	_, err := runner.Run(runner.Options{Workers: 4, Seed: 1, Fingerprint: "flaky:v2",
		Store: flaky, OnWarning: w.onWarning}, flakyJobs(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.count("degraded cache read"); got != 2 {
		t.Fatalf("2 injected get failures produced %d warnings", got)
	}
	if got := w.count("cannot cache"); got != 3 {
		t.Fatalf("3 injected put failures produced %d warnings", got)
	}
	if got := len(w.lines); got != 5 {
		t.Fatalf("got %d warnings in total, want exactly 5:\n%s", got, strings.Join(w.lines, "\n"))
	}
}

// TestFlakyStorePreservesExactlyOnceCoalescing proves the coalescing
// contract holds over a degrading store: concurrent identical
// submissions through one pool compute every cell once even while the
// store's remote tier fails every operation — degradation widens
// warnings, not work, as long as one healthy tier remains.
func TestFlakyStorePreservesExactlyOnceCoalescing(t *testing.T) {
	disk, err := runner.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &storetest.Flaky{Inner: runner.NewMemStore(0)}
	flaky.FailGets(-1, errors.New("origin down"))
	flaky.FailPuts(-1, errors.New("origin down"))
	store := runner.NewTiered(disk, flaky)

	pool := runner.NewPool[flakyResult](4)
	pool.TrackComputeCounts()
	var w warnCollector
	opt := runner.Options{Seed: 3, Fingerprint: "flaky:v3", Store: store, OnWarning: w.onWarning}

	const submissions, cells = 5, 9
	results := make([][]flakyResult, submissions)
	var wg sync.WaitGroup
	errs := make([]error, submissions)
	for s := 0; s < submissions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], errs[s] = pool.Run(opt, flakyJobs(cells))
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("submission %d failed: %v", s, err)
		}
	}

	counts := pool.ComputeCounts()
	if len(counts) != cells {
		t.Fatalf("computed %d distinct cells, want %d", len(counts), cells)
	}
	for key, n := range counts {
		if n != 1 {
			t.Errorf("cell %s computed %d times, want 1", key, n)
		}
	}
	for s := 1; s < submissions; s++ {
		if !reflect.DeepEqual(results[0], results[s]) {
			t.Fatalf("submission %d received different results", s)
		}
	}
}
