package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"pacram/internal/runner"
	"pacram/internal/sim"
)

// This file is the worker half of the sweep fabric. Every server
// exposes the execute endpoint — worker is a role, not a build — and
// JoinFleet turns a daemon into a registered worker of some
// coordinator. A worker executes single cells from compiled plans it
// caches by spec hash (see plans.go), on its own pool and store, so
// worker-side caching and coalescing compose with the coordinator's
// exactly-once machinery instead of bypassing it.

// handleFabricExecute runs exactly one cell of a shipped plan on this
// daemon's pool and store and answers with the cell's store envelope.
// A draining worker answers 503, which the coordinator treats as a
// decline, never an error. In-flight cells register with the drain
// WaitGroup: a worker shuts down only after the cells it accepted are
// answered.
func (s *Server) handleFabricExecute(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "worker is draining")
		return
	}
	var req ExecuteRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if len(req.Spec) == 0 || req.Key == "" {
		writeError(w, http.StatusBadRequest, "execute needs spec and key")
		return
	}
	cp, err := s.planFor(req.Spec)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "compiling shipped spec: %v", err)
		return
	}
	job, ok := cp.plan.Job(req.Key)
	// The coordinator names the fingerprint and seed the cell runs
	// under, so its store address is derived from them, not taken from
	// the plan.
	job.Addr = ""
	if !ok {
		// The coordinator compiled this key from the same bytes; a miss
		// means build skew between daemons. Refusing makes the
		// coordinator compute locally, preserving byte-identity.
		writeError(w, http.StatusUnprocessableEntity, "cell %q not in compiled plan (build skew?)", req.Key)
		return
	}

	// Same drain barrier as handleSubmit: re-check under s.mu so a
	// drain begun after the fast-path check cannot miss this cell.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "worker is draining")
		return
	}
	s.running.Add(1)
	s.mu.Unlock()
	defer s.running.Done()

	var (
		evMu    sync.Mutex
		cached  bool
		compute int64
	)
	results, err := s.pool.Run(runner.Options{
		Seed:        req.Seed,
		Fingerprint: req.Fingerprint,
		Store:       s.store,
		OnWarning: func(wn runner.Warning) {
			s.log.Warn("store degraded", "cell", wn.Cell, "op", wn.Op,
				"location", wn.Location, "err", wn.Err)
		},
		OnEvent: func(ev runner.Event) {
			if ev.Key != req.Key {
				return
			}
			evMu.Lock()
			cached = ev.Cached || ev.Coalesced
			compute = ev.ComputeNanos
			evMu.Unlock()
		},
	}, []runner.Job[sim.Result]{job})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "executing cell: %v", err)
		return
	}
	entry, err := runner.EncodeCellEnvelope(req.Fingerprint, req.Key, results[0])
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	evMu.Lock()
	resp := ExecuteResponse{Worker: s.workerName, Cached: cached, ComputeNanos: compute, Entry: entry}
	evMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// Membership is a worker's client-side fleet membership: the
// register/heartbeat loop against one coordinator. Construct with
// Server.JoinFleet, stop with Leave.
type Membership struct {
	coordinator string
	name        string
	hc          *http.Client
	log         interface {
		Info(msg string, args ...any)
		Warn(msg string, args ...any)
	}
	register RegisterRequest
	interval time.Duration
	cancel   context.CancelFunc
	done     chan struct{}
}

// JoinFleet registers this daemon as a worker of the coordinator at
// coordinatorURL, advertising itself at advertiseURL, and keeps the
// registration alive with heartbeats until Leave. The loop re-registers
// whenever the coordinator forgets it (a 404 heartbeat — coordinator
// restart — or any transient failure), so membership survives
// coordinator restarts without operator action. interval <= 0 picks
// a third of the coordinator's worker TTL once known, starting from
// the default.
func (s *Server) JoinFleet(coordinatorURL, advertiseURL string, interval time.Duration) *Membership {
	name := s.workerName
	m := &Membership{
		coordinator: coordinatorURL,
		name:        name,
		hc:          &http.Client{Timeout: 10 * time.Second},
		log:         s.log,
		register:    RegisterRequest{Name: name, URL: advertiseURL, Slots: s.pool.Workers()},
		interval:    interval,
		done:        make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	go m.loop(ctx)
	return m
}

func (m *Membership) post(path string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return m.hc.Post(m.coordinator+path, "application/json", bytes.NewReader(body))
}

// tryRegister attempts one registration; on success it adopts the
// coordinator's TTL for the heartbeat cadence when the caller did not
// pin one.
func (m *Membership) tryRegister() bool {
	resp, err := m.post(pathFabricRegister, m.register)
	if err != nil {
		m.log.Warn("fleet registration failed; retrying", "coordinator", m.coordinator, "err", err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		m.log.Warn("fleet registration rejected; retrying", "coordinator", m.coordinator, "status", resp.Status)
		return false
	}
	var out RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err == nil && m.interval <= 0 && out.TTLMillis > 0 {
		m.interval = time.Duration(out.TTLMillis) * time.Millisecond / 3
	}
	m.log.Info("joined fleet", "coordinator", m.coordinator, "worker", m.name)
	return true
}

func (m *Membership) loop(ctx context.Context) {
	defer close(m.done)
	registered := m.tryRegister()
	for {
		interval := m.interval
		if interval <= 0 {
			interval = workerTTL / 3
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
		if !registered {
			registered = m.tryRegister()
			continue
		}
		resp, err := m.post(pathFabricHeartbeat, HeartbeatRequest{Name: m.name})
		if err != nil {
			m.log.Warn("fleet heartbeat failed; will re-register", "err", err)
			registered = false
			continue
		}
		status := resp.StatusCode
		resp.Body.Close()
		if status == http.StatusNotFound {
			// Coordinator restarted and forgot us: register right away
			// instead of waiting out another interval.
			registered = m.tryRegister()
			continue
		}
		if status != http.StatusOK {
			m.log.Warn("fleet heartbeat rejected; will re-register", "status", status)
			registered = false
		}
	}
}

// Leave deregisters from the coordinator and stops the heartbeat loop.
// Call it before Drain so the coordinator stops dispatching while the
// worker finishes its accepted cells.
func (m *Membership) Leave() {
	m.cancel()
	<-m.done
	resp, err := m.post(pathFabricDeregister, HeartbeatRequest{Name: m.name})
	if err != nil {
		m.log.Warn("fleet deregistration failed (coordinator will expire us)", "err", err)
		return
	}
	resp.Body.Close()
	m.log.Info("left fleet", "coordinator", m.coordinator, "worker", m.name)
}
