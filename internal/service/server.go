package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pacram/internal/exp"
	"pacram/internal/runner"
	"pacram/internal/scenario"
	"pacram/internal/sim"
	"pacram/internal/telemetry"
)

// renderTable and renderCSV produce the byte-exact artifacts the CLI
// emits for a table; remote output byte-matching local runs hinges on
// both sides calling the same renderers.
func renderTable(tbl *exp.Table) []byte {
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	return buf.Bytes()
}

func renderCSV(tbl *exp.Table) []byte {
	var buf bytes.Buffer
	tbl.WriteCSV(&buf)
	return buf.Bytes()
}

// Config sizes a server.
type Config struct {
	// Workers bounds the shared simulation pool (<= 0: all CPUs). The
	// bound governs total cell concurrency across all jobs.
	Workers int
	// CacheDir locates the shared result store's disk tier. Empty
	// creates a private temporary directory: the store is what makes
	// cross-job deduplication exact, so the server always has one.
	CacheDir string
	// StoreURL, when non-empty, adds a remote result-store tier behind
	// the disk tier: another pacramd acting as cache origin. Cells
	// finished anywhere in the chain are fetched instead of recomputed,
	// and computed cells are written back.
	StoreURL string
	// MemStoreBytes sizes the in-memory LRU tier in front of disk:
	// 0 means runner.DefaultMemStoreBytes, < 0 disables the tier.
	MemStoreBytes int64
	// Logger, when non-nil, receives structured lifecycle events
	// (submission, completion, drain) and store-degradation warnings
	// with cell/location fields. Nil discards logs.
	Logger *slog.Logger
	// TraceDir, when non-empty, records one span-tree trace per job as
	// <TraceDir>/<jobID>.trace.jsonl (see cmd/tracetool for the
	// summarizer). Tracing is observability: a failing trace file is
	// logged, never fails the job.
	TraceDir string
	// WorkerName identifies this daemon in the fleet: the name it
	// registers under when joining a coordinator, and the name stamped
	// on cells it executes for one. Empty derives a host-pid default.
	WorkerName string
}

// retainJobs caps how many finished jobs (with their event histories
// and rendered artifacts) stay fetchable; once exceeded, the oldest
// finished jobs are evicted on new submissions. Running jobs are never
// evicted.
const retainJobs = 256

// Server executes scenario submissions on one shared pool and result
// store. Construct with New, expose via Handler, stop via Drain (and
// Close, when the store was private).
type Server struct {
	pool *runner.Pool[sim.Result]
	// store is the shared tiered result store (mem → disk [→ remote]);
	// dir is its disk tier's directory, kept for StoreDir/Close.
	// privateStore marks a directory the server created itself (a temp
	// dir) and therefore owns.
	store        *runner.Tiered
	dir          string
	privateStore bool
	log          *slog.Logger
	mux          *http.ServeMux
	traceDir     string

	// reg is the server's telemetry registry: pool, store, job and SSE
	// series, served at /metrics (Prometheus text) and /api/v1/metrics
	// (JSON). metrics holds the resolved service-level instruments.
	reg     *telemetry.Registry
	metrics serverMetrics

	// fleet is the coordinator-side worker registry (always present;
	// empty until workers register). workerName is this daemon's fleet
	// identity.
	fleet      *fleet
	workerName string

	// plans caches compiled spec documents for submit, validate and
	// execute; catalogPlans holds the built-in specs New compiled, by
	// name (see plans.go).
	plans        planCache
	catalogPlans map[string]*compiled

	draining atomic.Bool
	running  sync.WaitGroup // one count per executing job or dispatched cell

	// catalog is compiled once at construction: the built-in entries
	// are static per build, and both the catalog endpoint and remote
	// no-arg validation hit them repeatedly.
	catalog []CatalogEntry

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for listing
	nextID int
	retain int // retainJobs; tests set a small one
}

// job is one submission's lifecycle. Progress fields are guarded by
// mu; a broadcast channel is swapped on every update so SSE
// subscribers wake without polling.
type job struct {
	id       string
	scenario string
	total    int
	rows     int

	mu            sync.Mutex
	changed       chan struct{}
	state         string
	stream        []byte // the SSE cell frames so far, append-only
	done          int
	cached        int
	coalesced     int
	remote        int
	workers       map[string]int
	waitMicros    int64
	computeMicros int64
	errMsg        string
	tableID       string
	tableText     []byte
	csvText       []byte
	store         []runner.TierStats // tier counters snapshot at completion
	submitted     time.Time
	finished      time.Time
}

// New builds a server. The returned server owns its pool and store
// for its lifetime; callers running multiple servers in one process
// (tests) get fully isolated instances.
func New(cfg Config) (*Server, error) {
	dir, private := cfg.CacheDir, false
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pacramd-store-")
		if err != nil {
			return nil, fmt.Errorf("service: creating result store: %w", err)
		}
		dir, private = tmp, true
	}
	store, err := runner.OpenStore(dir, cfg.StoreURL, cfg.MemStoreBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		pool:         runner.NewPool[sim.Result](cfg.Workers),
		store:        store,
		dir:          dir,
		privateStore: private,
		log:          cfg.Logger,
		reg:          telemetry.New(),
		jobs:         make(map[string]*job),
		retain:       retainJobs,
		traceDir:     cfg.TraceDir,
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if s.traceDir != "" {
		if err := os.MkdirAll(s.traceDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: creating trace directory: %w", err)
		}
	}
	s.pool.Instrument(s.reg)
	s.metrics = newServerMetrics(s.reg, s.store)
	s.workerName = cfg.WorkerName
	if s.workerName == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		s.workerName = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	s.fleet = newFleet(s.log, s.reg)

	specs, err := scenario.Catalog()
	if err != nil {
		return nil, err
	}
	s.catalogPlans = make(map[string]*compiled, len(specs))
	for _, sp := range specs {
		cp, err := compileSpec(sp)
		if err != nil {
			return nil, fmt.Errorf("service: built-in scenario %s: %w", sp.Name, err)
		}
		s.catalogPlans[sp.Name] = cp
		s.catalog = append(s.catalog, CatalogEntry{
			Name:        sp.Name,
			Description: sp.Description,
			Cells:       cp.plan.Jobs(),
			Rows:        cp.plan.Rows(),
			Profile:     sp.MemoryProfile(),
			Source:      sp.Sources(),
		})
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathHealth, s.handleHealth)
	mux.HandleFunc("GET "+pathCatalog, s.handleCatalog)
	mux.HandleFunc("GET "+pathMetricDocs, s.handleMetricDocs)
	mux.HandleFunc("GET "+pathMetrics, s.handleMetrics)
	mux.HandleFunc("GET "+pathProm, s.handleProm)
	mux.HandleFunc("POST "+pathValidate, s.handleValidate)
	mux.HandleFunc("POST "+pathJobs, s.handleSubmit)
	mux.HandleFunc("GET "+pathJobs, s.handleList)
	mux.HandleFunc("GET "+pathJobs+"/{id}", s.handleStatus)
	mux.HandleFunc("GET "+pathJobs+"/{id}/events", s.handleEvents)
	mux.HandleFunc("GET "+pathJobs+"/{id}/table", s.handleTable)
	mux.HandleFunc("GET "+pathJobs+"/{id}/csv", s.handleCSV)
	// The fleet wire protocol: register/heartbeat/deregister/workers
	// form the coordinator's registry; execute is the worker role every
	// daemon can play.
	mux.HandleFunc("POST "+pathFabricRegister, s.handleFabricRegister)
	mux.HandleFunc("POST "+pathFabricHeartbeat, s.handleFabricHeartbeat)
	mux.HandleFunc("POST "+pathFabricDeregister, s.handleFabricDeregister)
	mux.HandleFunc("GET "+pathFabricWorkers, s.handleFabricWorkers)
	mux.HandleFunc("POST "+pathFabricExecute, s.handleFabricExecute)
	// The store wire protocol: any daemon doubles as a cache origin
	// for other daemons (their Config.StoreURL) and for CLI -store
	// runs. The literal /stats path wins over the {hash} wildcard.
	mux.HandleFunc("GET "+pathStoreStats, s.handleStoreStats)
	storeH := runner.StoreHandler(s.store)
	mux.Handle("GET "+runner.StorePathPrefix+"/{hash}", storeH)
	mux.Handle("PUT "+runner.StorePathPrefix+"/{hash}", storeH)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StoreDir returns the result store's disk-tier directory.
func (s *Server) StoreDir() string { return s.dir }

// Workers returns the shared pool's effective concurrency bound.
func (s *Server) Workers() int { return s.pool.Workers() }

// Close removes the result store if the server created it (no
// CacheDir configured); an operator-provided store is left alone.
// Call only after a successful Drain: running jobs still write to the
// store.
func (s *Server) Close() error {
	if !s.privateStore {
		return nil
	}
	return os.RemoveAll(s.dir)
}

// Drain stops accepting new submissions (503) and waits for running
// jobs to finish, or for ctx to expire. Already-accepted jobs always
// run to completion within the process; Drain only reports whether
// they finished in time.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		s.log.Info("draining: no longer accepting submissions")
	}
	// Barrier: a submission that passed its drain re-check holds s.mu
	// until it has registered with the WaitGroup; acquiring the lock
	// once here means every admitted job is counted before Wait and
	// every later submission sees the flag.
	s.mu.Lock()
	//lint:ignore SA2001 the critical section is the barrier
	s.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.running.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		s.log.Info("drained: all jobs finished")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted with jobs still running: %w", ctx.Err())
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, Error{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
	})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.catalog)
}

func (s *Server) handleMetricDocs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, scenario.MetricDocs())
}

// handleStoreStats serves the result store's live tier counters: one
// entry per tier in stack order, the stack-level aggregate last.
func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.PerTier())
}

// maxRequestBytes bounds submission bodies; real specs are a few KB,
// so 4 MB is generous without letting one request balloon the daemon.
const maxRequestBytes = 4 << 20

func decodeSubmit(w http.ResponseWriter, r *http.Request) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding request body: %v", err)
	}
	return req, nil
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cp, status, err := s.resolveSpec(req)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ValidateResponse{Name: cp.spec.Name, Cells: cp.plan.Jobs(), Rows: cp.plan.Rows()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting submissions")
		return
	}
	req, err := decodeSubmit(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cp, status, err := s.resolveSpec(req)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}

	s.mu.Lock()
	// Re-check under the registry lock so a drain begun between the
	// fast-path check and here cannot admit a straggler the drain's
	// WaitGroup never sees.
	if s.draining.Load() {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting submissions")
		return
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.nextID),
		scenario:  cp.spec.Name,
		total:     cp.plan.Jobs(),
		rows:      cp.plan.Rows(),
		changed:   make(chan struct{}),
		state:     StateRunning,
		submitted: time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.running.Add(1)
	s.mu.Unlock()

	s.metrics.jobsSubmitted.Inc()
	s.metrics.jobsRunning.Inc()
	s.log.Info("job accepted",
		"job", j.id, "scenario", j.scenario, "cells", j.total, "rows", j.rows)
	go s.execute(j, cp)

	writeJSON(w, http.StatusAccepted, j.status())
}

// execute runs one job to completion on the shared pool, dispatching
// owner-path cells to fleet workers when any are registered.
func (s *Server) execute(j *job, cp *compiled) {
	defer s.running.Done()
	defer s.metrics.jobsRunning.Dec()
	tw := s.openTrace(j.id)
	tbl, err := cp.plan.Run(scenario.RunOptions{
		Pool:    s.pool,
		Store:   s.store,
		Remote:  s.fleet.dispatcher(cp.wire),
		Trace:   tw,
		TraceID: j.id,
		// A degrading result store or fleet must reach the operator's
		// log: it silently turns exactly-once into recompute, never into
		// wrong results.
		OnWarning: func(w runner.Warning) {
			msg := "store degraded"
			if w.Op == "dispatch" {
				msg = "dispatch degraded"
			}
			s.log.Warn(msg,
				"job", j.id, "cell", w.Cell, "op", w.Op,
				"location", w.Location, "err", w.Err)
		},
		OnEvent: j.addEvent,
	})
	if cerr := tw.Close(); cerr != nil {
		s.log.Warn("trace write degraded", "job", j.id, "err", cerr)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.store = s.store.PerTier()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		s.metrics.jobsFailed.Inc()
		s.log.Error("job failed", "job", j.id, "err", err)
	} else {
		j.state = StateDone
		j.tableID = tbl.ID
		j.tableText = renderTable(tbl)
		j.csvText = renderCSV(tbl)
		s.metrics.jobsDone.Inc()
		s.log.Info("job done",
			"job", j.id, "cells", j.total, "cached", j.cached, "coalesced", j.coalesced,
			"waitMicros", j.waitMicros, "computeMicros", j.computeMicros)
	}
	j.broadcastLocked()
}

// openTrace opens the job's span-trace file under TraceDir. Tracing is
// observability: any failure is logged and the job runs untraced. The
// per-cell span trees stream to disk as cells finish; plan.Run closing
// never happens mid-write because the runner batches each tree under
// one writer lock, so closing after Run returns flushes a complete
// file. Returns nil (trace disabled) when TraceDir is unset.
func (s *Server) openTrace(jobID string) *telemetry.TraceWriter {
	if s.traceDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(s.traceDir, jobID+".trace.jsonl"))
	if err != nil {
		s.log.Warn("trace file creation failed; running untraced", "job", jobID, "err", err)
		return nil
	}
	return telemetry.NewTraceWriter(f)
}

// addEvent records one finished cell from the pool's record: the SSE
// frame every subscriber replays, encoded once here before j.mu is
// taken, and the status counters by outcome.
func (j *job) addEvent(ev runner.Event) {
	ce := CellEvent{
		Key:           ev.Key,
		Cached:        ev.Cached,
		Coalesced:     ev.Coalesced,
		Worker:        ev.Worker,
		Done:          ev.Done,
		Total:         ev.Total,
		WaitMicros:    ev.WaitNanos / 1e3,
		ComputeMicros: ev.ComputeNanos / 1e3,
	}
	if ev.Err != nil {
		ce.Error = ev.Err.Error()
	}
	var buf [256]byte // holds a frame unless its error message is long
	frame := appendCellFrame(buf[:0], ce)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stream == nil {
		// Size the stream for the whole job from its first frame, with
		// a quarter's headroom because keys differ in length, so it is
		// not regrown frame by frame.
		j.stream = make([]byte, 0, ev.Total*(len(frame)+len(frame)/4))
	}
	j.stream = append(j.stream, frame...)
	// Events arrive from concurrent workers, so Done values may appear
	// out of order; the counter only ever advances.
	if ev.Done > j.done {
		j.done = ev.Done
	}
	switch ev.Outcome() {
	case runner.OutcomeCached:
		j.cached++
	case runner.OutcomeCoalesced:
		j.coalesced++
	case runner.OutcomeRemote:
		j.remote++
	}
	if ev.Worker != "" {
		if j.workers == nil {
			j.workers = make(map[string]int)
		}
		j.workers[ev.Worker]++
	}
	j.waitMicros += ce.WaitMicros
	j.computeMicros += ce.ComputeMicros
	j.broadcastLocked()
}

// broadcastLocked wakes every subscriber waiting on this job; callers
// hold j.mu.
func (j *job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// status snapshots the job's public state.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:            j.id,
		Scenario:      j.scenario,
		TableID:       j.tableID,
		State:         j.state,
		Cells:         j.total,
		Done:          j.done,
		Cached:        j.cached,
		Coalesced:     j.coalesced,
		Remote:        j.remote,
		Rows:          j.rows,
		Error:         j.errMsg,
		WaitMicros:    j.waitMicros,
		ComputeMicros: j.computeMicros,
		SubmittedAt:   j.submitted.UTC().Format(time.RFC3339),
	}
	if len(j.workers) > 0 {
		st.Workers = make(map[string]int, len(j.workers))
		for w, n := range j.workers {
			st.Workers[w] = n
		}
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339)
		st.Store = j.store
	}
	return st
}

// evictLocked bounds the registry: a long-running daemon retains at
// most `retain` jobs, dropping the oldest finished ones (event
// history, table and CSV included) when new submissions arrive.
// Running jobs are never evicted, so the registry can exceed the cap
// only by the number of concurrently running jobs. Callers hold s.mu.
func (s *Server) evictLocked() {
	excess := len(s.order) - s.retain
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		if excess == 0 {
			kept = append(kept, s.order[i:]...)
			break
		}
		j := s.jobs[id]
		j.mu.Lock()
		finished := j.state != StateRunning
		j.mu.Unlock()
		if finished {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's per-cell progress as SSE: one "cell"
// event per finished cell (history replayed for late subscribers),
// then one terminal "done" event carrying the final JobStatus. Each
// wake-up writes every frame that is ready in one write and flushes
// once before waiting again: a flush is a write syscall, and cells
// finish in bursts. The frames were encoded when their cells finished;
// j.stream only ever grows, so the bytes below the length read under
// j.mu never change and are written without it.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.metrics.sseSubs.Inc()
	defer s.metrics.sseSubs.Dec()

	next := 0
	for {
		j.mu.Lock()
		frames := j.stream[next:]
		terminal := j.state != StateRunning
		var st JobStatus
		if terminal {
			st = j.statusLocked()
		}
		changed := j.changed
		j.mu.Unlock()

		if len(frames) > 0 {
			if _, err := w.Write(frames); err != nil {
				return
			}
			next += len(frames)
		}
		if terminal {
			if data, err := json.Marshal(st); err == nil {
				if _, err := fmt.Fprintf(w, "event: done\ndata: %s\n\n", data); err == nil {
					flusher.Flush()
				}
			}
			return
		}
		flusher.Flush()
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// finishedArtifact serves one of the job's rendered outputs, guarding
// the not-finished states uniformly.
func (s *Server) finishedArtifact(w http.ResponseWriter, r *http.Request, contentType string, pick func(*job) []byte) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	state, errMsg := j.state, j.errMsg
	data := pick(j)
	j.mu.Unlock()
	switch state {
	case StateRunning:
		writeError(w, http.StatusConflict, "job %s is still running", j.id)
	case StateFailed:
		writeError(w, http.StatusConflict, "job %s failed: %s", j.id, errMsg)
	default:
		w.Header().Set("Content-Type", contentType)
		w.Write(data)
	}
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	s.finishedArtifact(w, r, "text/plain; charset=utf-8", func(j *job) []byte { return j.tableText })
}

func (s *Server) handleCSV(w http.ResponseWriter, r *http.Request) {
	s.finishedArtifact(w, r, "text/csv; charset=utf-8", func(j *job) []byte { return j.csvText })
}
