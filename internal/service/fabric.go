package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"pacram/internal/runner"
	"pacram/internal/telemetry"
)

// This file is the coordinator half of the sweep fabric: a registry of
// worker daemons (any pacramd started with -coordinator) plus the
// dispatcher that ships owner-path cells to them. Placement is
// consistent hashing on the cell key — the same content-addressed key
// the store and singleflight use — so a worker keeps seeing the cells
// it has cached, and membership changes remap only the joining or
// leaving worker's arc. The fleet is an accelerator, never a
// dependency: every dispatch failure degrades to the local compute
// path the server has always had, and a fleet of zero workers is
// byte-identical to no fleet at all.

// workerTTL is how long the coordinator keeps a silent worker in the
// dispatch ring before expiring it. Workers heartbeat at a third of it.
const workerTTL = 15 * time.Second

// Worker states surfaced by the workers endpoint.
const (
	workerReady    = "ready"
	workerDraining = "draining"
	workerDead     = "dead"
)

// workerEntry is one registered worker and its dispatch accounting.
// All fields are guarded by the owning fleet's mutex.
type workerEntry struct {
	name         string
	url          string
	slots        int
	state        string
	registeredAt time.Time
	lastSeen     time.Time

	cells        int64 // cells executed (remote computes + worker cache hits)
	errors       int64 // failed dispatches attributed to this worker
	computeNanos int64 // worker-reported compute time, cumulative
}

// fleet is the coordinator's worker registry: the consistent-hash ring
// of live workers plus per-worker bookkeeping. Workers expire when
// heartbeats stop (lazily, on the next placement or listing), are
// marked draining when they answer 503, and dead when a dispatch
// fails — all three leave the ring so remaining cells remap.
type fleet struct {
	ttl time.Duration // workerTTL; tests set a short one
	hc  *http.Client
	log *slog.Logger

	dispatches       *telemetry.CounterVec
	dispatchOK       *telemetry.Counter
	dispatchDeclined *telemetry.Counter
	dispatchFailed   *telemetry.Counter
	dispatchSeconds  *telemetry.Histogram

	mu      sync.Mutex
	ring    *runner.Ring
	workers map[string]*workerEntry
}

func newFleet(log *slog.Logger, reg *telemetry.Registry) *fleet {
	f := &fleet{
		ttl: workerTTL,
		// No timeout: cells legitimately compute for minutes.
		hc:      &http.Client{},
		log:     log,
		ring:    runner.NewRing(0),
		workers: make(map[string]*workerEntry),
	}
	f.dispatches = reg.CounterVec("pacram_fabric_dispatch_total",
		"Cell dispatches to fleet workers by outcome (ok, declined, error).", "outcome")
	f.dispatchOK = f.dispatches.With("ok")
	f.dispatchDeclined = f.dispatches.With("declined")
	f.dispatchFailed = f.dispatches.With("error")
	f.dispatchSeconds = reg.Histogram("pacram_fabric_dispatch_seconds",
		"Round-trip time of successful cell dispatches.", telemetry.DurationBuckets())
	reg.Collect(f.collect)
	return f
}

// collect samples the registry for the metrics endpoints: a fleet-size
// gauge plus per-worker series. Worker cardinality is the fleet size,
// which is operator-bounded.
func (f *fleet) collect() []telemetry.Sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pruneLocked(time.Now())
	out := []telemetry.Sample{{
		Name: "pacram_fabric_workers", Type: telemetry.TypeGauge,
		Help:  "Workers currently in the dispatch ring.",
		Value: float64(f.ring.Len()),
	}}
	for _, w := range f.workers {
		lbl := []telemetry.Label{{Name: "worker", Value: w.name}}
		up := 0.0
		if w.state == workerReady {
			up = 1
		}
		out = append(out,
			telemetry.Sample{Name: "pacram_fabric_worker_up", Type: telemetry.TypeGauge,
				Help: "Whether the worker is in the dispatch ring.", Labels: lbl, Value: up},
			telemetry.Sample{Name: "pacram_fabric_worker_cells_total", Type: telemetry.TypeCounter,
				Help: "Cells this worker answered.", Labels: lbl, Value: float64(w.cells)},
			telemetry.Sample{Name: "pacram_fabric_worker_errors_total", Type: telemetry.TypeCounter,
				Help: "Dispatches to this worker that failed.", Labels: lbl, Value: float64(w.errors)},
			telemetry.Sample{Name: "pacram_fabric_worker_compute_micros_total", Type: telemetry.TypeCounter,
				Help: "Worker-reported compute time, microseconds.", Labels: lbl, Value: float64(w.computeNanos / 1e3)},
		)
	}
	return out
}

// register adds or refreshes a worker. Re-registration always returns
// the worker to the ring: it is how a worker recovers from being
// marked dead (transient network failure) or from a coordinator
// restart (heartbeat 404 → register again).
func (f *fleet) register(name, url string, slots int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	w := f.workers[name]
	if w == nil {
		w = &workerEntry{name: name, registeredAt: now}
		f.workers[name] = w
	}
	wasReady := w.state == workerReady
	w.url, w.slots, w.state, w.lastSeen = url, slots, workerReady, now
	if !wasReady {
		f.ring.Add(name)
		f.log.Info("worker joined fleet", "worker", name, "url", url, "slots", slots, "fleet", f.ring.Len())
	}
}

// heartbeat refreshes a worker's liveness; false means the worker is
// unknown (coordinator restarted, or the worker was deregistered) and
// must register again.
func (f *fleet) heartbeat(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.workers[name]
	if w == nil {
		return false
	}
	w.lastSeen = time.Now()
	if w.state == workerDead {
		// Heartbeats prove the machine is back even if a dispatch failed;
		// let it take traffic again.
		w.state = workerReady
		f.ring.Add(name)
		f.log.Info("worker recovered", "worker", name, "fleet", f.ring.Len())
	}
	return true
}

// deregister removes a worker entirely (clean shutdown).
func (f *fleet) deregister(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w := f.workers[name]; w != nil {
		if w.state == workerReady {
			f.ring.Remove(name)
		}
		delete(f.workers, name)
		f.log.Info("worker left fleet", "worker", name, "fleet", f.ring.Len())
	}
}

// markDraining takes a worker out of the ring without forgetting it: a
// draining worker answers 503 by contract, and its heartbeats keep the
// entry alive until it deregisters.
func (f *fleet) markDraining(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w := f.workers[name]; w != nil && w.state == workerReady {
		w.state = workerDraining
		f.ring.Remove(name)
		f.log.Info("worker draining", "worker", name, "fleet", f.ring.Len())
	}
}

// markDead records a failed dispatch and evicts the worker from the
// ring so remaining cells remap immediately; a later heartbeat or
// re-registration restores it.
func (f *fleet) markDead(name string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.workers[name]
	if w == nil {
		return
	}
	w.errors++
	if w.state == workerReady {
		w.state = workerDead
		f.ring.Remove(name)
		f.log.Warn("worker evicted after failed dispatch", "worker", name, "err", err, "fleet", f.ring.Len())
	}
}

// pruneLocked expires workers whose heartbeats stopped. Callers hold
// f.mu.
func (f *fleet) pruneLocked(now time.Time) {
	for name, w := range f.workers {
		if now.Sub(w.lastSeen) <= f.ttl {
			continue
		}
		if w.state == workerReady {
			f.ring.Remove(name)
		}
		delete(f.workers, name)
		f.log.Info("worker expired (heartbeats stopped)", "worker", name, "fleet", f.ring.Len())
	}
}

// pick places a cell key on its owning live worker; nil when the fleet
// has no live workers.
func (f *fleet) pick(key string) (name, url string, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pruneLocked(time.Now())
	if f.ring.Len() == 0 {
		return "", "", false
	}
	name = f.ring.Owner(key)
	w := f.workers[name]
	if w == nil {
		// Unreachable by construction (ring members always have entries),
		// but never dispatch into the void.
		f.ring.Remove(name)
		return "", "", false
	}
	return w.name, w.url, true
}

// capacity sums the live workers' pool slots: the dispatcher's hint
// for how many cells the pool may keep in flight beyond its own slots.
func (f *fleet) capacity() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pruneLocked(time.Now())
	total := 0
	for _, w := range f.workers {
		if w.state == workerReady {
			total += w.slots
		}
	}
	return total
}

// recordSuccess books a served cell against its worker.
func (f *fleet) recordSuccess(name string, computeNanos int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w := f.workers[name]; w != nil {
		w.cells++
		w.computeNanos += computeNanos
		w.lastSeen = time.Now()
	}
}

// statuses snapshots the registry for the workers endpoint, sorted by
// name via the ring's node list plus any out-of-ring entries.
func (f *fleet) statuses() []WorkerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pruneLocked(time.Now())
	out := make([]WorkerStatus, 0, len(f.workers))
	for _, w := range f.workers {
		out = append(out, WorkerStatus{
			Name:          w.name,
			URL:           w.url,
			Slots:         w.slots,
			State:         w.state,
			Cells:         w.cells,
			Errors:        w.errors,
			ComputeMicros: w.computeNanos / 1e3,
			RegisteredAt:  w.registeredAt.UTC().Format(time.RFC3339),
			LastSeen:      w.lastSeen.UTC().Format(time.RFC3339),
		})
	}
	sortWorkerStatuses(out)
	return out
}

func sortWorkerStatuses(ws []WorkerStatus) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Name < ws[j-1].Name; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

// dispatcher is the runner.RemoteExecutor one submission runs with:
// the fleet plus the submission's marshaled spec, which every execute
// request carries so workers can compile the plan themselves
// (wire-format key identity is pinned by scenario.TestSpecWireRoundTrip).
type dispatcher struct {
	f    *fleet
	spec json.RawMessage
}

// dispatcher builds the per-submission executor. A nil receiver (no
// fleet — the zero-config server) returns nil so the pool skips the
// dispatch path entirely.
func (f *fleet) dispatcher(spec json.RawMessage) runner.RemoteExecutor {
	if f == nil {
		return nil
	}
	return &dispatcher{f: f, spec: spec}
}

func (d *dispatcher) Capacity() int { return d.f.capacity() }

// Execute ships one cell to its ring owner. Outcomes map onto the
// RemoteExecutor contract: no live worker or a draining worker (503)
// is a silent decline; any other failure evicts the worker and reports
// an error so the pool warns, re-checks the store, and computes
// locally.
func (d *dispatcher) Execute(key, fingerprint string, seed uint64) (runner.RemoteResult, bool, error) {
	name, url, ok := d.f.pick(key)
	if !ok {
		d.f.dispatchDeclined.Inc()
		return runner.RemoteResult{}, false, nil
	}
	body, err := json.Marshal(ExecuteRequest{Spec: d.spec, Key: key, Fingerprint: fingerprint, Seed: seed})
	if err != nil {
		return runner.RemoteResult{}, false, err
	}
	start := time.Now()
	resp, err := d.f.hc.Post(url+pathFabricExecute, "application/json", bytes.NewReader(body))
	if err != nil {
		d.f.markDead(name, err)
		d.f.dispatchFailed.Inc()
		return runner.RemoteResult{}, false, fmt.Errorf("worker %s: %w", name, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		d.f.markDraining(name)
		d.f.dispatchDeclined.Inc()
		return runner.RemoteResult{}, false, nil
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<14))
		err := fmt.Errorf("worker %s answered %s: %s", name, resp.Status, bytes.TrimSpace(msg))
		d.f.markDead(name, err)
		d.f.dispatchFailed.Inc()
		return runner.RemoteResult{}, false, err
	}
	var out ExecuteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		d.f.markDead(name, err)
		d.f.dispatchFailed.Inc()
		return runner.RemoteResult{}, false, fmt.Errorf("worker %s: decoding response: %w", name, err)
	}
	d.f.recordSuccess(name, out.ComputeNanos)
	d.f.dispatchOK.Inc()
	d.f.dispatchSeconds.Observe(time.Since(start).Seconds())
	worker := out.Worker
	if worker == "" {
		worker = name
	}
	return runner.RemoteResult{
		Data:         out.Entry,
		Worker:       worker,
		Cached:       out.Cached,
		ComputeNanos: out.ComputeNanos,
	}, true, nil
}

// --- coordinator HTTP surface ---

func (s *Server) handleFabricRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if req.Name == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, "register needs name and url")
		return
	}
	if req.Slots <= 0 {
		req.Slots = 1
	}
	s.fleet.register(req.Name, req.URL, req.Slots)
	writeJSON(w, http.StatusOK, RegisterResponse{Name: req.Name, TTLMillis: s.fleet.ttl.Milliseconds()})
}

func (s *Server) handleFabricHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if !s.fleet.heartbeat(req.Name) {
		writeError(w, http.StatusNotFound, "unknown worker %q; register again", req.Name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleFabricDeregister(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	s.fleet.deregister(req.Name)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleFabricWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fleet.statuses())
}
