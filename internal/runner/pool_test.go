package runner

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolSharedCacheComputesEachCellOnce is the service-shaped
// guarantee: N concurrent Run invocations of the same job matrix over
// one pool and one shared store compute every cell exactly once —
// whichever invocation gets there first owns the flight, the others
// coalesce onto it or hit the store — and all invocations receive
// identical results.
func TestPoolSharedCacheComputesEachCellOnce(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool[mixResult](4)
	pool.TrackComputeCounts()
	opt := Options{Seed: 42, Fingerprint: "pool:v1", Store: store}

	const submissions = 6
	results := make([][]mixResult, submissions)
	errsCh := make(chan error, submissions)
	var wg sync.WaitGroup
	for s := 0; s < submissions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			res, err := pool.Run(opt, testJobs(17))
			results[s] = res
			errsCh <- err
		}(s)
	}
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	counts := pool.ComputeCounts()
	if len(counts) != 17 {
		t.Fatalf("computed %d distinct cells, want 17", len(counts))
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

// TestPoolCoalescesInFlightWithoutCache exercises the pure
// singleflight path: with no disk store, a Run invocation arriving
// while another computes the same cell adopts that computation.
func TestPoolCoalescesInFlightWithoutCache(t *testing.T) {
	pool := NewPool[mixResult](2)
	pool.TrackComputeCounts()
	release := make(chan struct{})
	started := make(chan struct{})
	var startedOnce sync.Once
	jobs := func() []Job[mixResult] {
		return []Job[mixResult]{{Key: "cell/slow", Run: func(c Ctx) (mixResult, error) {
			startedOnce.Do(func() { close(started) })
			<-release
			return compute(c)
		}}}
	}

	type outcome struct {
		res []mixResult
		err error
	}
	outs := make(chan outcome, 2)
	var coalesced atomic.Int64
	opt := Options{Seed: 7, Fingerprint: "pool:v1", OnEvent: func(ev Event) {
		if ev.Coalesced {
			coalesced.Add(1)
		}
	}}
	go func() {
		res, err := pool.Run(opt, jobs())
		outs <- outcome{res, err}
	}()
	<-started
	go func() {
		res, err := pool.Run(opt, jobs())
		outs <- outcome{res, err}
	}()
	// The second invocation needs to reach the flight map before the
	// owner finishes; a generous pause makes a miss implausible, and
	// the compute-count assertion below catches one anyway.
	time.Sleep(200 * time.Millisecond)
	close(release)

	a, b := <-outs, <-outs
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	if !reflect.DeepEqual(a.res, b.res) {
		t.Fatal("coalesced invocation received a different result")
	}
	if counts := pool.ComputeCounts(); counts["cell/slow"] != 1 {
		t.Fatalf("cell computed %d times, want 1 (coalesced events: %d)", counts["cell/slow"], coalesced.Load())
	}
	if coalesced.Load() != 1 {
		t.Fatalf("got %d coalesced events, want 1", coalesced.Load())
	}
}

// TestPoolBoundsComputeAcrossRuns proves the pool's slot bound governs
// concurrent invocations jointly: two Runs of blocking jobs over a
// 2-slot pool never execute more than 2 jobs at once.
func TestPoolBoundsComputeAcrossRuns(t *testing.T) {
	pool := NewPool[mixResult](2)
	var inFlight, peak atomic.Int64
	jobs := func(prefix string) []Job[mixResult] {
		js := make([]Job[mixResult], 6)
		for i := range js {
			js[i] = Job[mixResult]{Key: fmt.Sprintf("%s/%d", prefix, i), Run: func(c Ctx) (mixResult, error) {
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				inFlight.Add(-1)
				return compute(c)
			}}
		}
		return js
	}

	var wg sync.WaitGroup
	for _, prefix := range []string{"a", "b"} {
		wg.Add(1)
		go func(prefix string) {
			defer wg.Done()
			if _, err := pool.Run(Options{Seed: 1}, jobs(prefix)); err != nil {
				t.Error(err)
			}
		}(prefix)
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent computations on a 2-slot pool", p)
	}
}

// TestRunEventsAreDenseAndClassified checks the OnEvent stream: every
// job produces exactly one event, Done values are a permutation of
// 1..Total, and cache hits are classified as Cached on a warm run.
func TestRunEventsAreDenseAndClassified(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type collector struct {
		mu     sync.Mutex
		events []Event
	}
	collect := func() (*collector, Options) {
		c := &collector{}
		opt := Options{Workers: 3, Seed: 42, Fingerprint: "ev:v1", Store: store, OnEvent: func(ev Event) {
			c.mu.Lock()
			c.events = append(c.events, ev)
			c.mu.Unlock()
		}}
		return c, opt
	}

	check := func(events []Event, wantCached bool) {
		t.Helper()
		if len(events) != 9 {
			t.Fatalf("got %d events, want 9", len(events))
		}
		seen := make(map[int]bool)
		for _, ev := range events {
			if ev.Total != 9 || ev.Done < 1 || ev.Done > 9 || seen[ev.Done] {
				t.Fatalf("bad Done/Total in %+v", ev)
			}
			seen[ev.Done] = true
			if ev.Err != nil || ev.Key == "" {
				t.Fatalf("unexpected event %+v", ev)
			}
			if ev.Cached != wantCached {
				t.Fatalf("event %+v: Cached = %v, want %v", ev, ev.Cached, wantCached)
			}
		}
	}

	cold, opt := collect()
	if _, err := Run(opt, testJobs(9)); err != nil {
		t.Fatal(err)
	}
	check(cold.events, false)

	warm, opt := collect()
	if _, err := Run(opt, testJobs(9)); err != nil {
		t.Fatal(err)
	}
	check(warm.events, true)
}
