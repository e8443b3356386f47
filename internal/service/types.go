// Package service is the sweep service behind cmd/pacramd: an HTTP
// API that accepts scenario submissions (built-in catalog names or
// inline JSON specs), executes them on one shared bounded worker pool
// with one shared content-addressed result store, and serves job
// status, per-cell progress (SSE) and finished metric tables in the
// exact table/CSV bytes the CLI emits.
//
// Two submissions sweeping overlapping axes share work structurally:
// cells are content-addressed (a hash of the full resolved
// configuration), in-flight cells are coalesced across jobs
// (singleflight on the cell hash), and finished cells land in the
// shared store — so a cell, baselines above all, is simulated at most
// once per server build no matter how many users ask for it.
//
// Determinism carries through unchanged: a table served remotely is
// byte-identical to the same scenario run locally at any -parallel,
// which cmd/scenario's -remote mode and the CI smoke job verify.
package service

import (
	"encoding/json"

	"pacram/internal/runner"
)

// API paths, shared by the server mux and the client. The store wire
// protocol itself lives at runner.StorePathPrefix/{hash}.
const (
	pathHealth     = "/healthz"
	pathCatalog    = "/api/v1/catalog"
	pathMetricDocs = "/api/v1/metricdocs"
	pathMetrics    = "/api/v1/metrics"
	pathValidate   = "/api/v1/validate"
	pathJobs       = "/api/v1/jobs"
	pathStoreStats = runner.StorePathPrefix + "/stats"
	// Fabric paths: the coordinator's worker registry plus the execute
	// endpoint every daemon exposes (worker is a role, not a build).
	pathFabricRegister   = "/api/v1/fabric/register"
	pathFabricHeartbeat  = "/api/v1/fabric/heartbeat"
	pathFabricDeregister = "/api/v1/fabric/deregister"
	pathFabricWorkers    = "/api/v1/fabric/workers"
	pathFabricExecute    = "/api/v1/fabric/execute"
	// pathProm is the Prometheus text exposition of the same registry
	// pathMetrics serves as JSON; it lives outside /api/v1 because
	// scrapers conventionally expect the bare path.
	pathProm = "/metrics"
)

// SubmitRequest asks the server to validate or run one scenario:
// either a built-in catalog name or an inline spec document, never
// both.
type SubmitRequest struct {
	// Scenario names a built-in catalog entry.
	Scenario string `json:"scenario,omitempty"`
	// Spec is an inline scenario document (the same JSON a spec file
	// holds).
	Spec json.RawMessage `json:"spec,omitempty"`
}

// CatalogEntry describes one built-in scenario.
type CatalogEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Cells is the number of distinct simulation cells the scenario
	// compiles to; Rows the number of output table rows.
	Cells int `json:"cells"`
	Rows  int `json:"rows"`
	// Profile is the device profile the scenario pins or sweeps
	// ("default" when it inherits the base system); Source the
	// workload source kinds its members use. Both are additive wire
	// fields: old clients ignore them, old servers omit them.
	Profile string `json:"profile,omitempty"`
	Source  string `json:"source,omitempty"`
}

// ValidateResponse reports a validation outcome. On failure the
// server answers 422 with an Error payload instead.
type ValidateResponse struct {
	// Name is the validated scenario's name.
	Name string `json:"name"`
	// Cells and Rows describe the compiled plan.
	Cells int `json:"cells"`
	Rows  int `json:"rows"`
}

// Job states.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is one submission's public state.
type JobStatus struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	// TableID is the output table's ID (the CSV filename stem).
	TableID string `json:"tableId"`
	// State is running, done or failed.
	State string `json:"state"`
	// Cells is the job's total distinct simulation cells; Done how
	// many have finished so far. Cached counts cells served from a
	// result store (this server's or a worker's), Coalesced cells
	// adopted from a concurrent job's in-flight computation; a failed
	// cell counts in neither (runner.Event.Outcome).
	Cells     int `json:"cells"`
	Done      int `json:"done"`
	Cached    int `json:"cached"`
	Coalesced int `json:"coalesced"`
	Rows      int `json:"rows"`
	// Remote counts cells executed on fleet workers; Workers breaks all
	// worker-attributed cells down by worker name (worker-side cache
	// hits included). Both stay empty on a fleetless server, keeping the
	// schema backward compatible.
	Remote  int            `json:"remote,omitempty"`
	Workers map[string]int `json:"workers,omitempty"`
	// Error is the failure message when State is failed.
	Error string `json:"error,omitempty"`
	// WaitMicros totals the cells' pool-wait (and coalesce-wait) time;
	// ComputeMicros totals their compute time. Both accumulate as
	// cells finish, so a running job shows partial totals. ComputeMicros
	// exceeding wall time just means parallelism.
	WaitMicros    int64 `json:"waitMicros,omitempty"`
	ComputeMicros int64 `json:"computeMicros,omitempty"`
	// SubmittedAt/FinishedAt are RFC 3339 timestamps (FinishedAt empty
	// while running).
	SubmittedAt string `json:"submittedAt"`
	FinishedAt  string `json:"finishedAt,omitempty"`
	// Store snapshots the server's result-store tier counters at job
	// completion (per tier, aggregate last); empty while running. The
	// terminal SSE "done" event carries the same snapshot.
	Store []runner.TierStats `json:"store,omitempty"`
}

// CellEvent is one per-cell progress event on the SSE stream (event
// type "cell"). The terminal event (type "done") carries a JobStatus
// instead. appendCellFrame and parseCellEvent spell these fields out
// by hand, in this order: a new field goes there too (FuzzCellFrame
// holds both to encoding/json).
type CellEvent struct {
	// Key is the cell's content-addressed job key.
	Key string `json:"key"`
	// Cached and Coalesced classify how the result was obtained; both
	// false means the cell was simulated for this job.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Worker names the fleet worker that executed the cell; empty for
	// locally-handled cells, so pre-fabric consumers see no change.
	Worker string `json:"worker,omitempty"`
	// Error is the cell's failure, if any.
	Error string `json:"error,omitempty"`
	// Done counts the job's finished cells, Total its planned cells.
	Done  int `json:"done"`
	Total int `json:"total"`
	// WaitMicros is how long the cell waited before work could start
	// (for a pool slot when computed, for another job's in-flight
	// computation when coalesced); ComputeMicros its compute duration
	// (0 unless this job computed it).
	WaitMicros    int64 `json:"waitMicros,omitempty"`
	ComputeMicros int64 `json:"computeMicros,omitempty"`
}

// RegisterRequest announces a worker to a coordinator (and refreshes
// an existing registration — register is idempotent).
type RegisterRequest struct {
	// Name identifies the worker across re-registrations; dispatch
	// placement hashes cells against it, so keep it stable per machine.
	Name string `json:"name"`
	// URL is where the coordinator reaches the worker's API.
	URL string `json:"url"`
	// Slots is the worker's pool concurrency bound, the coordinator's
	// dispatch-capacity hint.
	Slots int `json:"slots"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	Name string `json:"name"`
	// TTLMillis is the coordinator's liveness window: a worker whose
	// heartbeats stop for longer is expired from the dispatch ring.
	TTLMillis int64 `json:"ttlMillis"`
}

// HeartbeatRequest refreshes (heartbeat) or removes (deregister) a
// worker's registration. A 404 heartbeat answer means the coordinator
// does not know the worker — it restarted — and the worker must
// register again.
type HeartbeatRequest struct {
	Name string `json:"name"`
}

// ExecuteRequest ships one cell to a worker: the submission's full
// scenario spec (the worker compiles and caches the plan itself) plus
// the cell's key and the runner addressing parameters.
type ExecuteRequest struct {
	Spec        json.RawMessage `json:"spec"`
	Key         string          `json:"key"`
	Fingerprint string          `json:"fingerprint"`
	Seed        uint64          `json:"seed"`
}

// ExecuteResponse answers one dispatched cell with its result-store
// envelope — the exact bytes a store put of the cell writes, so the
// coordinator validates and decodes it with the same code path as a
// cache hit.
type ExecuteResponse struct {
	// Worker is the answering worker's name (it may differ from the
	// registration if the operator renamed the daemon mid-flight).
	Worker string `json:"worker"`
	// Cached marks a cell the worker served from its own store or
	// coalesced with an in-flight computation instead of computing.
	Cached bool `json:"cached,omitempty"`
	// ComputeNanos is the worker-side compute duration (0 when cached).
	ComputeNanos int64 `json:"computeNanos,omitempty"`
	// Entry is the cell's store envelope.
	Entry json.RawMessage `json:"entry"`
}

// WorkerStatus is one registered worker's public state.
type WorkerStatus struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Slots int    `json:"slots"`
	// State is ready (in the dispatch ring), draining (answered 503) or
	// dead (a dispatch failed; heartbeats restore it).
	State string `json:"state"`
	// Cells counts dispatches this worker answered, Errors dispatches
	// to it that failed, ComputeMicros its cumulative reported compute.
	Cells         int64 `json:"cells"`
	Errors        int64 `json:"errors,omitempty"`
	ComputeMicros int64 `json:"computeMicros,omitempty"`
	// RegisteredAt/LastSeen are RFC 3339 timestamps.
	RegisteredAt string `json:"registeredAt"`
	LastSeen     string `json:"lastSeen"`
}

// Error is the uniform non-2xx response body.
type Error struct {
	Error string `json:"error"`
}
