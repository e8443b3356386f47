package runner

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"pacram/internal/telemetry"
	"pacram/internal/xrand"
)

// Ctx is what a job learns about itself at execution time.
type Ctx struct {
	// Key is the job's matrix key.
	Key string
	// Seed is derived deterministically from the engine's base seed
	// and Key; it does not depend on worker count or scheduling.
	Seed uint64
	// Phase, when non-nil, records a named sub-phase of this job's own
	// work into the invocation's cell trace (Options.Trace), as a
	// sibling of the pool's store-get/pool-wait/compute spans under the
	// same cell root. Nil when tracing is off; jobs must tolerate that.
	// Call it only from the job's goroutine, before Run returns.
	Phase func(name string, start, end time.Time)
}

// Job is one cell of a sweep matrix. Key must be unique within the
// matrix and stable across runs: it names the cell and, together with
// the options fingerprint and seed, addresses its cache entry.
type Job[T any] struct {
	Key string
	Run func(Ctx) (T, error)
	// Addr is the cell's store address under the Fingerprint and Seed
	// the job runs with, as Matrix.Address computes it once per plan;
	// "" makes every Run derive it from Key.
	Addr string
}

// Options configures one engine invocation.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.NumCPU().
	Workers int
	// Seed is the base seed jobs' Ctx.Seed values are derived from.
	// It is also mixed into cache hashes.
	Seed uint64
	// Fingerprint names everything outside the job keys that affects
	// results (scale knobs, config version). Jobs cached under one
	// fingerprint are never returned under another.
	Fingerprint string
	// Store, when non-nil, persists results in a pluggable backend:
	// disk (NewDiskStore, the classic layout), memory (NewMemStore),
	// a pacramd cache origin (NewRemoteStore), or a tiered stack of
	// them (NewTiered). See OpenStore for the standard composition.
	Store Store
	// Remote, when non-nil, may execute owner-path cells on remote
	// worker machines instead of the local pool slots (the sweep
	// fabric's coordinator wires one in per submission). Results are
	// byte-identical whether a cell ran locally or on any worker; when
	// the executor declines or fails, the cell is computed locally —
	// see RemoteExecutor for the exact contract.
	Remote RemoteExecutor
	// Progress, when non-nil, receives streaming progress and ETA
	// lines (typically os.Stderr).
	Progress io.Writer
	// Label prefixes progress output.
	Label string
	// OnEvent, when non-nil, receives one Event per finished cell
	// (computed, cached, coalesced, remote or failed). It is
	// called from worker goroutines, possibly concurrently; it must be
	// safe for concurrent use and return quickly.
	OnEvent func(Event)
	// OnWarning, when non-nil, receives non-fatal degradation warnings
	// (a failing result store above all) instead of Progress; a
	// headless caller like the sweep service points this at its logger
	// so operators see when exactly-once degrades to recompute.
	// Warning.Message renders the text Progress would have printed.
	OnWarning func(Warning)
	// Trace, when non-nil, records one span tree per cell (the phases:
	// store-get, pool-wait, compute, store-put, or coalesce-wait under
	// a "cell" root) into the writer. A nil writer records nothing at
	// zero cost. Span IDs are unique per Run invocation; give each
	// invocation its own TraceID (and typically its own file) to keep
	// traces separable.
	Trace *telemetry.TraceWriter
	// TraceID groups this invocation's spans (a daemon job ID, a
	// scenario name).
	TraceID string
}

// Warning is one non-fatal degradation notice: a failing store
// operation or remote dispatch that cost duplicated work or an
// uncached result, never a wrong one.
type Warning struct {
	// Cell is the job key of the affected cell.
	Cell string
	// Op is the failing operation: "get" or "put" for the result
	// store, "dispatch" for a failed remote execution.
	Op string
	// Location names where the offending bytes live when the backend
	// can say (corrupt disk entries above all); "" otherwise.
	Location string
	// Err is the failure: a *CellError for reads, the backend's error
	// for writes.
	Err error
}

// Message renders the warning as one line of text, byte-for-byte what
// the Progress writer prints.
func (w Warning) Message() string {
	switch w.Op {
	case "get":
		return fmt.Sprintf("runner: warning: degraded cache read for %v (recomputing if needed)", w.Err)
	case "dispatch":
		return fmt.Sprintf("runner: warning: remote dispatch failed for %s (computing locally): %v", w.Cell, w.Err)
	}
	return fmt.Sprintf("runner: warning: cannot cache %s (continuing uncached): %v", w.Cell, w.Err)
}

// warningFor builds the structured form of a store degradation,
// lifting the location out of a *CellError when one is available.
func warningFor(cell, op string, err error) Warning {
	w := Warning{Cell: cell, Op: op, Err: err}
	var ce *CellError
	if errors.As(err, &ce) {
		w.Location = ce.Location
	}
	return w
}

// Matrix accumulates jobs, deduplicating by key: sweep drivers
// naturally request shared cells (baselines, normalization anchors)
// many times, and only the first request plans the job.
type Matrix[T any] struct {
	jobs []Job[T]
	seen map[string]int // key → index into jobs
}

// NewMatrix returns an empty matrix.
func NewMatrix[T any]() *Matrix[T] {
	return &Matrix[T]{seen: make(map[string]int)}
}

// Add plans one job unless key is already planned, and returns the
// job's index: its position in Jobs and in a Run's results.
func (m *Matrix[T]) Add(key string, run func(Ctx) (T, error)) int {
	if i, ok := m.seen[key]; ok {
		return i
	}
	m.seen[key] = len(m.jobs)
	m.jobs = append(m.jobs, Job[T]{Key: key, Run: run})
	return len(m.jobs) - 1
}

// Address computes every planned job's store address (Job.Addr) under
// the fingerprint and seed the jobs will run with, so runs of the same
// matrix skip the hashing. The jobs must then run under exactly these
// Options.Fingerprint and Options.Seed. Call it once planning is done:
// jobs added afterwards derive their address on every run.
func (m *Matrix[T]) Address(fingerprint string, seed uint64) {
	for i := range m.jobs {
		m.jobs[i].Addr = hashCell(fingerprint, seed, m.jobs[i].Key)
	}
}

// Len returns the number of distinct planned jobs.
func (m *Matrix[T]) Len() int { return len(m.jobs) }

// Index returns the index of the planned job with the given key.
func (m *Matrix[T]) Index(key string) (int, bool) {
	i, ok := m.seen[key]
	return i, ok
}

// Job returns the planned job with the given key. Fabric workers use
// it to run exactly one cell of a compiled plan on request.
func (m *Matrix[T]) Job(key string) (Job[T], bool) {
	i, ok := m.seen[key]
	if !ok {
		return Job[T]{}, false
	}
	return m.jobs[i], true
}

// Jobs returns the planned jobs in planning order.
func (m *Matrix[T]) Jobs() []Job[T] { return m.jobs }

// JobSeed returns the seed a job with the given key observes as
// Ctx.Seed under the given base seed.
func JobSeed(base uint64, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	return xrand.Derive(base, h.Sum64()).Uint64()
}

// Run executes the jobs over a transient worker pool and returns their
// results in job order. See the package documentation for the
// determinism, caching and failure guarantees; long-lived callers
// that want cross-invocation coalescing construct a Pool instead.
func Run[T any](opt Options, jobs []Job[T]) ([]T, error) {
	return NewPool[T](opt.Workers).Run(opt, jobs)
}
