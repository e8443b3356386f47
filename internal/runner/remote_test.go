package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pacram/internal/telemetry"
)

// fakeExecutor scripts RemoteExecutor behavior per key: execute
// remotely, decline, or fail.
type fakeExecutor struct {
	mu       sync.Mutex
	executed map[string]int

	worker   string
	capacity int
	// results maps keys the fake "fleet" will execute to their values;
	// keys absent here are declined (ok=false).
	results map[string]int
	// fail marks keys whose dispatch errors out.
	fail map[string]error
	// cached marks keys answered as worker-side cache hits.
	cached map[string]bool
	// computeNanos is reported as the worker's compute duration.
	computeNanos int64
	// garbage, when set, answers with bytes that fail envelope
	// validation.
	garbage bool
}

func (f *fakeExecutor) Capacity() int { return f.capacity }

func (f *fakeExecutor) Execute(key, fingerprint string, seed uint64) (RemoteResult, bool, error) {
	if err, ok := f.fail[key]; ok {
		return RemoteResult{}, false, err
	}
	v, ok := f.results[key]
	if !ok {
		return RemoteResult{}, false, nil
	}
	f.mu.Lock()
	if f.executed == nil {
		f.executed = make(map[string]int)
	}
	f.executed[key]++
	f.mu.Unlock()
	if f.garbage {
		return RemoteResult{Data: []byte(`{"key":"someone-else","fingerprint":"x","result":1}`), Worker: f.worker}, true, nil
	}
	data, err := EncodeCellEnvelope(fingerprint, key, v)
	if err != nil {
		return RemoteResult{}, false, err
	}
	return RemoteResult{Data: data, Worker: f.worker, Cached: f.cached[key], ComputeNanos: f.computeNanos}, true, nil
}

func remoteJobs(n int, computed *atomic.Int64) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Key: fmt.Sprintf("cell-%d", i), Run: func(Ctx) (int, error) {
			if computed != nil {
				computed.Add(1)
			}
			return i * 10, nil
		}}
	}
	return jobs
}

// TestRemoteExecutesCells: with an executor claiming every cell, no
// local compute happens, results are identical to local values, and
// events attribute each cell to the worker with compute/wait split per
// the worker's report.
func TestRemoteExecutesCells(t *testing.T) {
	var computed atomic.Int64
	jobs := remoteJobs(6, &computed)
	ex := &fakeExecutor{worker: "w-1", capacity: 4, computeNanos: 1000,
		results: map[string]int{}}
	for i, j := range jobs {
		ex.results[j.Key] = i * 10
	}
	var mu sync.Mutex
	var events []Event
	res, err := Run(Options{Workers: 2, Fingerprint: "t", Remote: ex, OnEvent: func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 0 {
		t.Fatalf("%d cells computed locally, want 0", computed.Load())
	}
	for i, j := range jobs {
		if res[i] != i*10 {
			t.Fatalf("cell %s = %d, want %d", j.Key, res[i], i*10)
		}
	}
	if len(events) != len(jobs) {
		t.Fatalf("%d events for %d jobs", len(events), len(jobs))
	}
	for _, ev := range events {
		if ev.Worker != "w-1" {
			t.Fatalf("event %+v lacks worker attribution", ev)
		}
		if ev.Cached || ev.Coalesced || ev.Err != nil {
			t.Fatalf("unexpected event %+v", ev)
		}
		if ev.ComputeNanos != 1000 {
			t.Fatalf("event compute %d, want the worker-reported 1000", ev.ComputeNanos)
		}
		if ev.WaitNanos < 0 {
			t.Fatalf("negative wait in %+v", ev)
		}
	}
}

// TestRemoteDeclineFallsBackSilently: an executor over an empty fleet
// (ok=false everywhere) leaves behavior byte-identical to a purely
// local pool — all cells computed locally, no warnings, no worker
// attribution.
func TestRemoteDeclineFallsBackSilently(t *testing.T) {
	var computed atomic.Int64
	jobs := remoteJobs(4, &computed)
	var warned []Warning
	var mu sync.Mutex
	var workers []string
	res, err := Run(Options{Workers: 2, Fingerprint: "t",
		Remote: &fakeExecutor{capacity: 0},
		OnWarning: func(w Warning) {
			mu.Lock()
			warned = append(warned, w)
			mu.Unlock()
		},
		OnEvent: func(ev Event) {
			mu.Lock()
			workers = append(workers, ev.Worker)
			mu.Unlock()
		}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != int64(len(jobs)) {
		t.Fatalf("%d local computes, want %d", computed.Load(), len(jobs))
	}
	if len(warned) != 0 {
		t.Fatalf("silent decline produced warnings: %+v", warned)
	}
	for _, w := range workers {
		if w != "" {
			t.Fatalf("locally-computed cell attributed to worker %q", w)
		}
	}
	if res[0] != 0 || res[3] != 30 {
		t.Fatalf("wrong results %v", res)
	}
}

// TestRemoteFailureWarnsAndComputesLocally: a dead worker degrades to
// a dispatch warning plus a local compute with the right answer.
func TestRemoteFailureWarnsAndComputesLocally(t *testing.T) {
	var computed atomic.Int64
	jobs := remoteJobs(2, &computed)
	var mu sync.Mutex
	var warned []Warning
	res, err := Run(Options{Workers: 2, Fingerprint: "t",
		Remote: &fakeExecutor{capacity: 1, fail: map[string]error{
			"cell-0": errors.New("connection refused"),
			"cell-1": errors.New("connection refused"),
		}},
		OnWarning: func(w Warning) {
			mu.Lock()
			warned = append(warned, w)
			mu.Unlock()
		}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 2 {
		t.Fatalf("%d local computes after dispatch failure, want 2", computed.Load())
	}
	if res[1] != 10 {
		t.Fatalf("wrong result %v", res)
	}
	if len(warned) != 2 {
		t.Fatalf("got %d warnings, want 2: %+v", len(warned), warned)
	}
	for _, w := range warned {
		if w.Op != "dispatch" {
			t.Fatalf("warning op %q, want dispatch", w.Op)
		}
		if !strings.Contains(w.Message(), "remote dispatch failed") ||
			!strings.Contains(w.Message(), "computing locally") {
			t.Fatalf("warning message %q", w.Message())
		}
	}
}

// TestRemoteFailureRechecksStore: when dispatch fails but the worker's
// result already landed in the shared store (write-back raced the
// worker's death), the cell is served as a cache hit — no duplicate
// compute.
func TestRemoteFailureRechecksStore(t *testing.T) {
	store := NewMemStore(0)
	const fp = "t"
	// Seed the store with the result the "dead worker" wrote back. The
	// pool's first store check must miss, so seed via a job whose
	// dispatch fails *after* the initial GetCell — simplest is to seed
	// up front and give the executor a key that is never in the store:
	// instead, seed after the initial check is impossible to time, so
	// exercise the path directly: the initial check misses (empty
	// store), dispatch fails, and the re-check hits because the fake
	// executor writes the entry into the store as its failure side
	// effect (the worker finished, the wire broke on the response).
	var computed atomic.Int64
	jobs := remoteJobs(1, &computed)
	hash := hashCell(fp, 0, jobs[0].Key)
	ex := &storeWritingFailer{store: store, fp: fp, hash: hash}
	var warned []Warning
	var mu sync.Mutex
	var events []Event
	res, err := Run(Options{Workers: 1, Fingerprint: fp, Store: store, Remote: ex,
		OnWarning: func(w Warning) { warned = append(warned, w) },
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 0 {
		t.Fatalf("cell recomputed locally despite the worker's write-back")
	}
	if res[0] != 777 {
		t.Fatalf("result %v, want the worker's 777", res)
	}
	if len(warned) != 1 || warned[0].Op != "dispatch" {
		t.Fatalf("warnings %+v, want exactly the dispatch failure", warned)
	}
	if len(events) != 1 || !events[0].Cached {
		t.Fatalf("event %+v, want a cache hit", events)
	}
}

// storeWritingFailer simulates a worker that computes and writes back,
// then dies before answering: Execute stores the entry and returns a
// transport error.
type storeWritingFailer struct {
	store Store
	fp    string
	hash  string
}

func (s *storeWritingFailer) Capacity() int { return 1 }
func (s *storeWritingFailer) Execute(key, fingerprint string, seed uint64) (RemoteResult, bool, error) {
	if err := PutCell(s.store, s.hash, s.fp, key, 777); err != nil {
		return RemoteResult{}, false, err
	}
	return RemoteResult{}, false, errors.New("connection reset mid-response")
}

// TestRemoteGarbageEnvelopeFallsBack: an envelope that fails validation
// (build skew, wrong cell) is never trusted — warned and recomputed.
func TestRemoteGarbageEnvelopeFallsBack(t *testing.T) {
	var computed atomic.Int64
	jobs := remoteJobs(1, &computed)
	var warned []Warning
	res, err := Run(Options{Workers: 1, Fingerprint: "t",
		Remote: &fakeExecutor{worker: "w-x", capacity: 1, garbage: true,
			results: map[string]int{"cell-0": 0}},
		OnWarning: func(w Warning) { warned = append(warned, w) }}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 1 {
		t.Fatal("garbage envelope was not recomputed locally")
	}
	if res[0] != 0 {
		t.Fatalf("result %v", res)
	}
	if len(warned) != 1 || warned[0].Op != "dispatch" {
		t.Fatalf("warnings %+v", warned)
	}
}

// TestRemoteResultsLandInStore: a remote execution's envelope is written
// into the local store, so the next invocation serves it as a plain
// cache hit without touching the fleet.
func TestRemoteResultsLandInStore(t *testing.T) {
	store := NewMemStore(0)
	jobs := remoteJobs(3, nil)
	ex := &fakeExecutor{worker: "w-1", capacity: 2, results: map[string]int{}}
	for i, j := range jobs {
		ex.results[j.Key] = i * 10
	}
	if _, err := Run(Options{Workers: 2, Fingerprint: "t", Store: store, Remote: ex}, jobs); err != nil {
		t.Fatal(err)
	}
	if got := ex.executed["cell-1"]; got != 1 {
		t.Fatalf("cell-1 executed remotely %d times, want 1", got)
	}
	// Second run, no executor: everything must come from the store.
	var cached atomic.Int64
	var computed atomic.Int64
	res, err := Run(Options{Workers: 2, Fingerprint: "t", Store: store,
		OnEvent: func(ev Event) {
			if ev.Cached {
				cached.Add(1)
			}
		}}, remoteJobs(3, &computed))
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 0 || cached.Load() != 3 {
		t.Fatalf("second run: %d computed, %d cached; want 0/3", computed.Load(), cached.Load())
	}
	if res[2] != 20 {
		t.Fatalf("results %v", res)
	}
}

// TestRemoteWorkerCacheHitReportedCached: a worker answering from its
// own store surfaces as a cached event, keeping fleet-wide compute
// accounting exact.
func TestRemoteWorkerCacheHitReportedCached(t *testing.T) {
	jobs := remoteJobs(1, nil)
	ex := &fakeExecutor{worker: "w-1", capacity: 1,
		results: map[string]int{"cell-0": 5}, cached: map[string]bool{"cell-0": true}}
	var events []Event
	var mu sync.Mutex
	if _, err := Run(Options{Workers: 1, Fingerprint: "t", Remote: ex,
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}}, jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].Cached || events[0].Worker != "w-1" {
		t.Fatalf("events %+v, want one cached event from w-1", events)
	}
}

// TestEncodeDecodeCellEnvelope round-trips and rejects mismatches.
func TestEncodeDecodeCellEnvelope(t *testing.T) {
	data, err := EncodeCellEnvelope("fp", "k", map[string]float64{"x": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]float64
	if err := DecodeCellEnvelope(data, "fp", "k", &out); err != nil {
		t.Fatal(err)
	}
	if out["x"] != 1.5 {
		t.Fatalf("round trip lost data: %v", out)
	}
	if err := DecodeCellEnvelope(data, "fp", "other", &out); err == nil {
		t.Fatal("key mismatch accepted")
	}
	if err := DecodeCellEnvelope(data, "other", "k", &out); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	if err := DecodeCellEnvelope([]byte("not json"), "fp", "k", &out); err == nil {
		t.Fatal("garbage accepted")
	}
}

// BenchmarkCellEnvelope measures the dispatch path's serialization
// cost: one encode plus one validate-and-decode of a realistic-sized
// result payload.
func BenchmarkCellEnvelope(b *testing.B) {
	type payload struct {
		IPC   []float64
		Stats map[string]int64
	}
	p := payload{IPC: make([]float64, 8), Stats: map[string]int64{"acts": 123456, "refs": 789}}
	for i := range p.IPC {
		p.IPC[i] = 0.75 + float64(i)/16
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := EncodeCellEnvelope("bench", "cell@deadbeef", &p)
		if err != nil {
			b.Fatal(err)
		}
		var out payload
		if err := DecodeCellEnvelope(data, "bench", "cell@deadbeef", &out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRemoteCapacityScalesDispatch: fleet capacity raises the number of
// concurrently-dispatched cells beyond the local slot count. The fake
// executor blocks until all expected dispatches are in flight; with
// only local sizing the run would deadlock, so completing at all is the
// assertion, bounded by a watchdog.
func TestRemoteCapacityScalesDispatch(t *testing.T) {
	const fleet = 6
	ex := &gateExecutor{need: fleet, gate: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := Run(Options{Workers: 1, Fingerprint: "t", Remote: ex}, remoteJobs(fleet, nil))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dispatch concurrency never reached fleet capacity; pool sized goroutines to local slots only")
	}
}

// gateExecutor blocks every Execute until `need` calls are
// simultaneously in flight, then releases them all.
type gateExecutor struct {
	mu       sync.Mutex
	inFly    int
	need     int
	gate     chan struct{}
	released bool
}

func (g *gateExecutor) Capacity() int { return g.need }
func (g *gateExecutor) Execute(key, fingerprint string, seed uint64) (RemoteResult, bool, error) {
	g.mu.Lock()
	g.inFly++
	if g.inFly >= g.need && !g.released {
		g.released = true
		close(g.gate)
	}
	g.mu.Unlock()
	<-g.gate
	var v int
	fmt.Sscanf(key, "cell-%d", &v)
	data, err := EncodeCellEnvelope(fingerprint, key, v*10)
	if err != nil {
		return RemoteResult{}, false, err
	}
	return RemoteResult{Data: data, Worker: "w-gate"}, true, nil
}

// TestRemoteCachedOwnerWaitersReportCached: a waiter on an owner whose
// worker served the cell from its own store is a cache hit, as it is
// on a local store hit — there was no computation to coalesce onto.
func TestRemoteCachedOwnerWaitersReportCached(t *testing.T) {
	reg := telemetry.New()
	pool := NewPool[int](2)
	pool.Instrument(reg)
	var mu sync.Mutex
	var events []Event
	opt := Options{Fingerprint: "t", OnEvent: func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}
	if err := runHeldPair(pool, opt, opt); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	for _, ev := range events {
		if !ev.Cached || ev.Coalesced {
			t.Fatalf("event %+v, want a cache hit", ev)
		}
	}
	if got := cellsByOutcome(reg)[OutcomeCoalesced]; got != 0 {
		t.Fatalf("%v coalesced cells booked, want 0", got)
	}
}

// heldWorker answers every cell as a worker-side cache hit, but only
// once release is closed; started closes when the first call arrives.
type heldWorker struct {
	once             sync.Once
	started, release chan struct{}
	calls            atomic.Int64
}

func (h *heldWorker) Capacity() int { return 1 }
func (h *heldWorker) Execute(key, fingerprint string, seed uint64) (RemoteResult, bool, error) {
	h.calls.Add(1)
	h.once.Do(func() { close(h.started) })
	<-h.release
	data, err := EncodeCellEnvelope(fingerprint, key, 7)
	if err != nil {
		return RemoteResult{}, false, err
	}
	return RemoteResult{Data: data, Worker: "w-held", Cached: true}, true, nil
}

// runHeldPair runs one cell from two invocations on pool: the owner
// dispatches it to a held worker, the waiter arrives while that
// dispatch is in flight, then the worker answers. It fails unless the
// waiter adopted the owner's flight (exactly one dispatch).
func runHeldPair(pool *Pool[int], owner, waiter Options) error {
	h := &heldWorker{started: make(chan struct{}), release: make(chan struct{})}
	errs := make(chan error, 2)
	run := func(opt Options) {
		opt.Remote = h
		_, err := pool.Run(opt, remoteJobs(1, nil))
		errs <- err
	}
	go run(owner)
	<-h.started
	go run(waiter)
	// The waiter needs to reach the flight map before the worker
	// answers; a generous pause makes a miss implausible, and the
	// dispatch count below catches one anyway.
	time.Sleep(200 * time.Millisecond)
	close(h.release)
	if err := errors.Join(<-errs, <-errs); err != nil {
		return err
	}
	if n := h.calls.Load(); n != 1 {
		return fmt.Errorf("cell dispatched %d times, want 1 (the waiter missed the flight)", n)
	}
	return nil
}
