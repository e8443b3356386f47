package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Event is the one record of a finished cell of a Run invocation. The
// pool's metrics, the cell's span tree, the progress line and OnEvent
// (which the sweep service forwards over SSE) all read it, so they
// cannot disagree. Exactly one of five outcomes holds per event (see
// Outcome): the cell failed (Err), was served from a result store —
// the local one or a remote worker's (Cached) — was picked up from a
// concurrent computation of the same cell (Coalesced), was executed by
// a remote worker (Worker), or was computed here.
type Event struct {
	// Key is the finished job's matrix key.
	Key string
	// Cached marks a result served from the result store without
	// computing.
	Cached bool
	// Coalesced marks a result adopted from another in-flight
	// computation of the same cell — the pool was already executing it
	// for a concurrent Run invocation when this one asked.
	Coalesced bool
	// Err is the job's failure, nil on success.
	Err error
	// Worker names the remote machine that executed the cell when it
	// was dispatched over a RemoteExecutor; "" for locally-handled
	// cells, so consumers that predate the fabric see no change.
	Worker string
	// Done counts this Run invocation's finished jobs, Total its
	// planned jobs. Done is unique and dense per invocation (1..Total)
	// even though events arrive concurrently.
	Done, Total int
	// WaitNanos is how long the cell waited before work could start:
	// for a pool slot when it was computed here, for another
	// invocation's in-flight computation when coalesced, or — for
	// remotely-executed cells — the dispatch round trip minus the
	// worker's reported compute time (network plus the worker's own
	// queueing). 0 for store hits.
	WaitNanos int64
	// ComputeNanos is the compute-phase duration: this invocation's
	// own compute, or the worker-reported compute for remote cells.
	// Dispatch queueing never lands here, so per-cell compute totals
	// (and the ETAs derived from them) stay honest when a slow worker
	// holds many cells.
	ComputeNanos int64
}

// flight is one in-progress computation of a cell, shared by every
// Run invocation that asks for the same cell hash while it runs. A
// Run allocates its flights in one slice, and a flight nobody waits on
// allocates nothing more: done is made, under the pool's lock, by the
// first waiter to arrive.
type flight[T any] struct {
	done   chan struct{} // nil until a waiter arrives; closed on release
	res    *T            // the owner's results slot, final on release
	err    error
	cached bool // the owner served it from the result store, not compute
}

// Pool is a long-lived bounded worker pool shared across concurrent
// Run invocations: the sweep service routes every submission through
// one Pool so the machine runs at most Workers simulation cells at
// once, no matter how many sweeps are in flight.
//
// The Pool also deduplicates identical cells across concurrent
// invocations ("singleflight"): cells are content-addressed by the
// same hash the result store uses (fingerprint + seed + job key), the
// first invocation to ask for a cell computes it, and every
// invocation that asks while it runs waits for that one computation
// instead of starting its own. Combined with a shared Options.Store —
// the owner stores its result before releasing waiters and
// deregistering the flight — a cell is computed at most once per
// (store, model) no matter how many overlapping sweeps are submitted
// concurrently, whatever backend the store stacks. Without a store,
// deduplication still applies to cells whose computations overlap in
// time.
//
// Results handed to coalesced waiters alias the owner's value, and
// warm hits on a memory tier alias the value its first hit decoded
// (see GetCell), across invocations too. Callers must treat results
// as immutable; table assembly in this repository only reads them,
// and scenario.TestCatalogStoreBackendParity serves every result twice
// from a warm store to keep it that way.
type Pool[T any] struct {
	slots chan struct{}

	// metrics is the resolved instrument set; zero (all nil
	// instruments, every operation a no-op) until Instrument is called.
	metrics poolMetrics

	mu       sync.Mutex
	flights  map[string]*flight[T]
	computes map[string]int // per job key; nil unless tracking is on
}

// NewPool sizes a pool; workers <= 0 means runtime.NumCPU().
func NewPool[T any](workers int) *Pool[T] {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool[T]{
		slots:   make(chan struct{}, workers),
		flights: make(map[string]*flight[T]),
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool[T]) Workers() int { return cap(p.slots) }

// TrackComputeCounts turns on per-key compute accounting. It is test
// instrumentation, off by default: a long-lived pool would otherwise
// accumulate one map entry per distinct cell ever computed.
func (p *Pool[T]) TrackComputeCounts() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.computes == nil {
		p.computes = make(map[string]int)
	}
}

// ComputeCounts returns how many times each job key was actually
// computed (cache hits and coalesced waits excluded), keyed by job
// key; nil unless TrackComputeCounts was called first. With
// content-addressed keys and a shared cache, every count is 1; the
// coalescing tests assert exactly that.
func (p *Pool[T]) ComputeCounts() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.computes == nil {
		return nil
	}
	out := make(map[string]int, len(p.computes))
	for k, v := range p.computes {
		out[k] = v
	}
	return out
}

// Run executes the jobs on the pool and returns their results in job
// order: results[i] is jobs[i]'s. It is safe to call concurrently from
// multiple goroutines; Options.Workers is ignored (the pool's bound
// governs). Each invocation dispatches its jobs in index order and
// drains in-flight jobs on failure, so the determinism, caching and
// failure guarantees of top-level Run hold unchanged — results are
// bit-identical whether a cell was computed, cached, or coalesced.
// Only actual computation occupies a pool slot: an invocation waiting
// on the result store or on another invocation's in-flight cell
// consumes no capacity. A job's store address is its Addr when set,
// else derived from its key; phase clocks for the cell's span tree
// are read only when Options.Trace is set.
func (p *Pool[T]) Run(opt Options, jobs []Job[T]) ([]T, error) {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Key == "" || j.Run == nil {
			return nil, fmt.Errorf("runner: job with empty key or nil func")
		}
		if seen[j.Key] {
			return nil, fmt.Errorf("runner: duplicate job key %q", j.Key)
		}
		seen[j.Key] = true
	}

	// Dispatch goroutines are sized to the whole fleet, not just the
	// local slots: remote execution consumes no local slot, so a fleet
	// of workers is kept busy only if enough cells are in flight at
	// once. Capacity is a sizing hint sampled here — workers joining
	// mid-run raise throughput of the *next* invocation.
	workers := cap(p.slots)
	if opt.Remote != nil {
		workers += opt.Remote.Capacity()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	flights := make([]flight[T], len(jobs))
	prog := newProgress(opt.Progress, opt.Label, len(jobs))

	var (
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		once      sync.Once
		feed      = make(chan int)
		warnMu    sync.Mutex
		doneCount atomic.Int64
	)
	fail := func() { once.Do(func() { close(stop) }) }
	// Caching is an optimization: a failing store (disk full, an
	// unreachable remote tier, a corrupt entry) must not discard a
	// computed result or abort the sweep. Each failing store operation
	// warns exactly once — naming the cell, and for read failures where
	// the bad bytes live — and the run continues uncached. OnWarning
	// gets the structured form, one call at a time; otherwise Progress
	// gets Warning.Message, under the progress line's own lock.
	warn := func(w Warning) {
		if opt.OnWarning == nil {
			prog.warn(w.Message())
			return
		}
		warnMu.Lock()
		defer warnMu.Unlock()
		opt.OnWarning(w)
	}

	// done hands a finished cell's record to every per-cell consumer,
	// in order: metrics, the span tree, the progress line, OnEvent.
	done := func(ev Event, ct *cellTrace, cellStart time.Time) {
		ev.Done = int(doneCount.Add(1))
		ev.Total = len(jobs)
		now := time.Now()
		p.metrics.cellDone(ev, now.Sub(cellStart))
		ct.finish(ev, now)
		if ev.Err == nil {
			prog.step(ev.Cached || ev.Coalesced)
		}
		if opt.OnEvent != nil {
			opt.OnEvent(ev)
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				j := jobs[i]
				hash := j.Addr
				if hash == "" {
					hash = hashCell(opt.Fingerprint, opt.Seed, j.Key)
				}
				cellStart := time.Now()
				ct := newCellTrace(opt.Trace, opt.TraceID, j.Key, i, cellStart)

				// Atomic check-or-register: either adopt the in-flight
				// computation of this cell, or become its owner.
				p.mu.Lock()
				if f, ok := p.flights[hash]; ok {
					if f.done == nil {
						f.done = make(chan struct{})
					}
					wait := f.done
					p.mu.Unlock()
					<-wait
					now := time.Now()
					ct.phase("coalesce-wait", cellStart, now)
					results[i], errs[i] = *f.res, f.err
					if f.err != nil {
						fail()
					}
					// An owner that served the cell from a store — its
					// own or a worker's — computed nothing to coalesce
					// onto; report those waiters as cache hits.
					done(Event{Key: j.Key, Cached: f.cached, Coalesced: !f.cached, Err: f.err,
						WaitNanos: int64(now.Sub(cellStart))}, ct, cellStart)
					continue
				}
				f := &flights[i]
				f.res = &results[i]
				p.flights[hash] = f
				p.mu.Unlock()

				// Owner path. The flight is deregistered only after the
				// result is in the store, so at every instant a
				// cell is findable either in flight or in the store —
				// the gap that would let a concurrent submission
				// recompute it never opens (short of a store failure,
				// which degrades to duplicated work, never to
				// corruption). Every path releases the flight before
				// its record goes out, so a caller reacting to an event
				// never finds that cell still in flight. results[i] is
				// final by then, and waiters copy it from there.
				release := func(err error) {
					f.err = err
					p.mu.Lock()
					delete(p.flights, hash)
					wait := f.done
					p.mu.Unlock()
					if wait != nil {
						close(wait)
					}
				}

				// tryStore serves the cell from the result store when
				// present, releasing the flight as a cache hit. It runs
				// before any work — and again after a failed dispatch,
				// because a dying worker may have written its result back
				// before the wire broke.
				tryStore := func() bool {
					if opt.Store == nil {
						return false
					}
					getStart := ct.now()
					hit, gerr := GetCell(opt.Store, hash, opt.Fingerprint, j.Key, &results[i])
					ct.phase("store-get", getStart, ct.now())
					if gerr != nil {
						warn(warningFor(j.Key, "get", gerr))
					}
					if !hit {
						return false
					}
					f.cached = true
					release(nil)
					done(Event{Key: j.Key, Cached: true}, ct, cellStart)
					return true
				}
				if tryStore() {
					continue
				}

				// Remote dispatch: hand the cell to the fleet when an
				// executor is configured and a worker claims it. Every
				// failure path falls through to the local compute below —
				// a fleet of zero workers, a draining worker, a dead one
				// or a build-skewed envelope all degrade to exactly the
				// local behavior, byte-identically.
				if opt.Remote != nil {
					dispatchStart := time.Now()
					rr, ok, rerr := opt.Remote.Execute(j.Key, opt.Fingerprint, opt.Seed)
					switch {
					case rerr != nil:
						warn(warningFor(j.Key, "dispatch", rerr))
						if tryStore() {
							continue
						}
					case ok:
						if derr := DecodeCellEnvelope(rr.Data, opt.Fingerprint, j.Key, &results[i]); derr != nil {
							warn(warningFor(j.Key, "dispatch", derr))
							break
						}
						end := time.Now()
						roundtrip := end.Sub(dispatchStart)
						compute := time.Duration(rr.ComputeNanos)
						if compute > roundtrip {
							compute = roundtrip
						}
						// The round trip splits into queue time (network
						// plus the worker's own pool wait) and the
						// worker's compute; the trace spans are synthetic,
						// anchored backwards from the response.
						wait := roundtrip - compute
						ct.phase("dispatch-wait", dispatchStart, dispatchStart.Add(wait))
						if compute > 0 {
							ct.phase("remote-compute", dispatchStart.Add(wait), end)
						}
						if opt.Store != nil {
							// The envelope is already in store currency:
							// land it in the local tiers so the next sweep
							// (or a coordinator restart) finds it without
							// asking the fleet.
							putStart := ct.now()
							if serr := opt.Store.Put(hash, rr.Data); serr != nil {
								warn(warningFor(j.Key, "put", serr))
							}
							ct.phase("store-put", putStart, ct.now())
						}
						f.cached = rr.Cached
						release(nil)
						done(Event{Key: j.Key, Cached: rr.Cached, Worker: rr.Worker,
							WaitNanos: int64(wait), ComputeNanos: int64(compute)}, ct, cellStart)
						continue
					}
				}

				waitStart := time.Now()
				p.metrics.waiting.Inc()
				p.slots <- struct{}{}
				p.metrics.waiting.Dec()
				p.metrics.inflight.Inc()
				computeStart := time.Now()
				ct.phase("pool-wait", waitStart, computeStart)
				ctx := Ctx{Key: j.Key, Seed: JobSeed(opt.Seed, j.Key)}
				if ct != nil {
					ctx.Phase = ct.phase
				}
				res, err := j.Run(ctx)
				computeEnd := time.Now()
				p.metrics.inflight.Dec()
				<-p.slots
				ct.phase("compute", computeStart, computeEnd)
				p.mu.Lock()
				if p.computes != nil {
					p.computes[j.Key]++
				}
				p.mu.Unlock()

				results[i], errs[i] = res, err
				if err != nil {
					fail()
				} else if opt.Store != nil {
					putStart := ct.now()
					serr := PutCell(opt.Store, hash, opt.Fingerprint, j.Key, res)
					ct.phase("store-put", putStart, ct.now())
					if serr != nil {
						warn(warningFor(j.Key, "put", serr))
					}
				}
				release(err)
				done(Event{Key: j.Key, Err: err, WaitNanos: int64(computeStart.Sub(waitStart)),
					ComputeNanos: int64(computeEnd.Sub(computeStart))}, ct, cellStart)
			}
		}()
	}

	// Dispatch until done or a job fails; then drain.
dispatch:
	for i := range jobs {
		select {
		case feed <- i:
		case <-stop:
			break dispatch
		}
	}
	close(feed)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	prog.finish()
	return results, nil
}
