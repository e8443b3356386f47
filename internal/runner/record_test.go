package runner

import (
	"bytes"
	"errors"
	"maps"
	"sync"
	"testing"
	"time"

	"pacram/internal/telemetry"
)

// cellsByOutcome reads pacram_pool_cells_total off reg, by outcome.
func cellsByOutcome(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, fam := range reg.Snapshot() {
		if fam.Name != "pacram_pool_cells_total" {
			continue
		}
		for _, s := range fam.Series {
			out[s.Labels["outcome"]] = *s.Value
		}
	}
	return out
}

// TestCellRecordAgrees drives one instrumented, traced pool through
// every outcome — computed, cached, coalesced, remote, remote-cached
// (owner and waiter) and failed — and checks that the consumers of the
// per-cell record agree with it: each cell's root span carries the
// event's outcome and worker, and the outcome counters count exactly
// the events with that outcome.
func TestCellRecordAgrees(t *testing.T) {
	reg := telemetry.New()
	pool := NewPool[int](2)
	pool.Instrument(reg)
	store := NewMemStore(0)
	var buf bytes.Buffer
	tw := telemetry.NewTraceWriter(&buf)

	var mu sync.Mutex
	events := make(map[string]Event) // trace ID + " " + cell key
	traced := func(traceID string, opt Options) Options {
		opt.Fingerprint = "record:v1"
		opt.Trace, opt.TraceID = tw, traceID
		opt.OnEvent = func(ev Event) {
			mu.Lock()
			events[traceID+" "+ev.Key] = ev
			mu.Unlock()
		}
		return opt
	}

	// computed, then cached from the store.
	for _, id := range []string{"computed", "cached"} {
		if _, err := pool.Run(traced(id, Options{Store: store}), remoteJobs(2, nil)); err != nil {
			t.Fatal(err)
		}
	}

	// computed by one invocation, coalesced onto by another.
	release, started := make(chan struct{}), make(chan struct{})
	var once sync.Once
	slow := []Job[int]{{Key: "slow", Run: func(Ctx) (int, error) {
		once.Do(func() { close(started) })
		<-release
		return 1, nil
	}}}
	errs := make(chan error, 2)
	for _, id := range []string{"owner", "waiter"} {
		go func() {
			_, err := pool.Run(traced(id, Options{}), slow)
			errs <- err
		}()
		<-started
	}
	time.Sleep(200 * time.Millisecond)
	close(release)
	if err := errors.Join(<-errs, <-errs); err != nil {
		t.Fatal(err)
	}

	// remote and remote-cached on a worker, then a remote-cached owner
	// with a waiter.
	ex := &fakeExecutor{worker: "w-1", capacity: 2,
		results: map[string]int{"cell-0": 0, "cell-1": 10}, cached: map[string]bool{"cell-1": true}}
	if _, err := pool.Run(traced("remote", Options{Remote: ex}), remoteJobs(2, nil)); err != nil {
		t.Fatal(err)
	}
	if err := runHeldPair(pool, traced("held-owner", Options{}), traced("held-waiter", Options{})); err != nil {
		t.Fatal(err)
	}

	// failed.
	boom := []Job[int]{{Key: "boom", Run: func(Ctx) (int, error) { return 0, errors.New("boom") }}}
	if _, err := pool.Run(traced("failed", Options{}), boom); err == nil {
		t.Fatal("failing job returned no error")
	}

	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, s := range spans {
		if s.Parent != "" {
			continue
		}
		roots++
		ev, ok := events[s.Trace+" "+s.Cell]
		if !ok {
			t.Fatalf("root span %+v has no event", s)
		}
		if s.Attrs["outcome"] != ev.Outcome() || s.Attrs["worker"] != ev.Worker {
			t.Fatalf("%s/%s: span attrs %v, event outcome %q worker %q",
				s.Trace, s.Cell, s.Attrs, ev.Outcome(), ev.Worker)
		}
	}
	if roots != len(events) {
		t.Fatalf("%d root spans for %d events", roots, len(events))
	}

	want := make(map[string]float64)
	for _, ev := range events {
		want[ev.Outcome()]++
	}
	for _, o := range []string{OutcomeComputed, OutcomeCached, OutcomeCoalesced, OutcomeRemote, OutcomeFailed} {
		if want[o] == 0 {
			t.Fatalf("no %s cell exercised; events %v", o, want)
		}
	}
	if got := cellsByOutcome(reg); !maps.Equal(got, want) {
		t.Fatalf("pacram_pool_cells_total %v, events by outcome %v", got, want)
	}
}
