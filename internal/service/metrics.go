package service

import (
	"net/http"

	"pacram/internal/runner"
	"pacram/internal/telemetry"
)

// serverMetrics is the server's resolved instrument set: job
// lifecycle counters, the SSE subscriber gauge, the plan cache's
// lookup counters, and (via Collector) the result store's tier
// counters. Pool metrics are registered by Pool.Instrument on the
// same registry.
type serverMetrics struct {
	jobsSubmitted *telemetry.Counter
	jobsDone      *telemetry.Counter
	jobsFailed    *telemetry.Counter
	jobsRunning   *telemetry.Gauge
	sseSubs       *telemetry.Gauge
	planHits      *telemetry.Counter
	planMisses    *telemetry.Counter
}

// newServerMetrics registers the service-level families. The store's
// counters are surfaced with a scrape-time collector rather than
// duplicated instruments: TierStats stays the single source of truth
// (it is public API — job status payloads and /api/v1/store/stats
// serve it), and the registry samples it on demand.
func newServerMetrics(reg *telemetry.Registry, store *runner.Tiered) serverMetrics {
	finished := reg.CounterVec("pacram_jobs_finished_total",
		"Finished jobs by terminal state (done, failed).", "state")
	m := serverMetrics{
		jobsSubmitted: reg.Counter("pacram_jobs_submitted_total", "Accepted job submissions."),
		jobsDone:      finished.With(StateDone),
		jobsFailed:    finished.With(StateFailed),
		jobsRunning:   reg.Gauge("pacram_jobs_running", "Jobs currently executing."),
		sseSubs:       reg.Gauge("pacram_sse_subscribers", "Open SSE event-stream subscriptions."),
		planHits: reg.Counter("pacram_plan_cache_hits_total",
			"Spec resolves (submit, validate, execute) served a compiled plan without compiling."),
		planMisses: reg.Counter("pacram_plan_cache_misses_total",
			"Spec resolves (submit, validate, execute) that compiled, or failed to resolve."),
	}
	reg.Collect(storeCollector(store))
	return m
}

// storeCollector samples the tiered store's counters at scrape time:
// one series per tier (the stack-level aggregate included, under
// tier="tiered") per counter family.
func storeCollector(store *runner.Tiered) telemetry.Collector {
	return func() []telemetry.Sample {
		tiers := store.PerTier()
		out := make([]telemetry.Sample, 0, len(tiers)*8)
		add := func(tier, name, typ, help string, v int64) {
			out = append(out, telemetry.Sample{
				Name: name, Type: typ, Help: help,
				Labels: []telemetry.Label{{Name: "tier", Value: tier}},
				Value:  float64(v),
			})
		}
		for _, t := range tiers {
			add(t.Name, "pacram_store_hits_total", telemetry.TypeCounter, "Store gets that found the entry.", t.Hits)
			add(t.Name, "pacram_store_misses_total", telemetry.TypeCounter, "Store gets that missed.", t.Misses)
			add(t.Name, "pacram_store_puts_total", telemetry.TypeCounter, "Store puts.", t.Puts)
			add(t.Name, "pacram_store_errors_total", telemetry.TypeCounter, "Failed store operations.", t.Errors)
			add(t.Name, "pacram_store_evictions_total", telemetry.TypeCounter, "Entries evicted by a size bound.", t.Evictions)
			add(t.Name, "pacram_store_promotions_total", telemetry.TypeCounter, "Entries promoted into faster tiers.", t.Promotions)
			add(t.Name, "pacram_store_entries", telemetry.TypeGauge, "Entries currently held (where cheap to know).", t.Entries)
			add(t.Name, "pacram_store_bytes", telemetry.TypeGauge, "Bytes currently held (where cheap to know).", t.Bytes)
			add(t.Name, "pacram_store_get_micros_total", telemetry.TypeCounter, "Cumulative get latency, microseconds.", t.GetMicros)
			add(t.Name, "pacram_store_put_micros_total", telemetry.TypeCounter, "Cumulative put latency, microseconds.", t.PutMicros)
		}
		return out
	}
}

// handleProm serves the registry in Prometheus text exposition format.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleMetrics serves the registry as a JSON snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}
