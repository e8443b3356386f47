// Command pacramd is the sweep service daemon: a long-running HTTP
// server that accepts scenario submissions (built-in catalog names or
// inline JSON specs), executes them on one shared bounded worker pool
// with one shared content-addressed result store, and serves job
// status, per-cell progress (SSE) and finished metric tables in the
// exact bytes the scenario CLI emits. Identical cells across
// concurrent submissions — shared baselines above all — are simulated
// exactly once.
//
// Usage:
//
//	pacramd [-addr :8793] [-parallel N] [-cache DIR] [-store URL]
//	        [-mem-store MB] [-drain-timeout 2m] [-log-level info]
//	        [-trace DIR] [-coordinator URL] [-advertise URL]
//	        [-worker-name NAME] [-heartbeat D]
//
// Logs are structured (log/slog text format) on stderr; -log-level
// takes debug, info, warn or error. -trace records one span-tree trace
// file per job as DIR/<jobID>.trace.jsonl — summarize with
// cmd/tracetool. The telemetry registry (pool, store, job, SSE series)
// is served in Prometheus text exposition at GET /metrics and as JSON
// at GET /api/v1/metrics.
//
// The HTTP API is documented in the top-level README; cmd/scenario's
// -remote flag is the reference client:
//
//	pacramd -cache /var/cache/pacram &
//	scenario run fig17 -remote http://localhost:8793
//
// Every daemon also doubles as a result-store cache origin
// (GET/PUT /api/v1/store/{hash}): point another daemon's -store, or a
// CLI run's -store, at this daemon's base URL to share finished cells
// across machines and processes built from the same model.
//
// -coordinator turns the daemon into a sweep-fabric worker: it
// registers with the coordinator daemon at the given URL (advertising
// -advertise, default http://localhost<addr>) and executes cells the
// coordinator dispatches to it, alongside any local submissions it
// receives directly. Unless -store is set explicitly, a worker mounts
// its coordinator as its remote store tier, so results it computes
// land fleet-visible. The coordinator is just a daemon with workers
// attached — any pacramd accepts registrations.
//
// On SIGINT/SIGTERM the server drains: a worker first leaves the fleet
// (new dispatches are answered 503 and remap to other workers), then
// new submissions are rejected with 503 while running jobs and
// accepted cells finish (bounded by -drain-timeout), then the listener
// shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pacram/internal/service"
)

// fleetFlags groups the worker-mode knobs so run's signature stays
// readable.
type fleetFlags struct {
	coordinator string
	advertise   string
	workerName  string
	heartbeat   time.Duration
}

func main() {
	var (
		addr         = flag.String("addr", ":8793", "listen address")
		parallel     = flag.Int("parallel", 0, "shared worker pool size across all jobs (0 = all CPUs)")
		cacheDir     = flag.String("cache", "", "result store directory (default: a private temp dir)")
		storeURL     = flag.String("store", "", "remote result-store origin URL (another pacramd) behind the disk tier")
		memStoreMB   = flag.Int64("mem-store", 256, "in-memory result-store tier size in MB (0 disables the tier)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long to wait for running jobs on shutdown")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		traceDir     = flag.String("trace", "", "record one span-tree trace file per job in this directory (see cmd/tracetool)")
		coordinator  = flag.String("coordinator", "", "join the sweep fabric as a worker of the coordinator daemon at this URL")
		advertise    = flag.String("advertise", "", "URL the coordinator reaches this worker at (default: http://localhost<addr>)")
		workerName   = flag.String("worker-name", "", "stable fleet identity (default: <hostname>-<pid>)")
		heartbeat    = flag.Duration("heartbeat", 0, "worker heartbeat interval (0: a third of the coordinator's TTL)")
	)
	flag.Parse()
	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pacramd: %v\n", err)
		os.Exit(2)
	}
	ff := fleetFlags{coordinator: *coordinator, advertise: *advertise, workerName: *workerName, heartbeat: *heartbeat}
	if err := run(*addr, *parallel, *cacheDir, *storeURL, *traceDir, *memStoreMB, *drainTimeout, level, ff); err != nil {
		fmt.Fprintf(os.Stderr, "pacramd: %v\n", err)
		os.Exit(1)
	}
}

// parseLevel maps the -log-level flag to a slog level; unknown names
// fail loudly rather than silently defaulting.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (have: debug info warn error)", s)
}

// advertiseDefault derives the URL a coordinator can reach this
// daemon at from its listen address: an address with no host listens
// on every interface, so localhost works for single-machine fleets and
// multi-machine setups must pass -advertise explicitly.
func advertiseDefault(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://localhost" + addr
	}
	return "http://" + addr
}

func run(addr string, parallel int, cacheDir, storeURL, traceDir string, memStoreMB int64, drainTimeout time.Duration, level slog.Level, ff fleetFlags) error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	memBytes := memStoreMB << 20
	if memStoreMB <= 0 {
		memBytes = -1 // Config: negative disables the mem tier
	}
	if ff.coordinator != "" && storeURL == "" {
		// A worker mounts its coordinator as its remote store tier:
		// computed cells write back fleet-visible, and cells finished
		// anywhere in the fleet are fetched instead of recomputed.
		storeURL = ff.coordinator
	}
	srv, err := service.New(service.Config{
		Workers:       parallel,
		CacheDir:      cacheDir,
		StoreURL:      storeURL,
		MemStoreBytes: memBytes,
		Logger:        logger,
		TraceDir:      traceDir,
		WorkerName:    ff.workerName,
	})
	if err != nil {
		return err
	}

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", addr, "workers", srv.Workers(), "store", srv.StoreDir())
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	var membership *service.Membership
	if ff.coordinator != "" {
		adv := ff.advertise
		if adv == "" {
			adv = advertiseDefault(addr)
		}
		membership = srv.JoinFleet(ff.coordinator, adv, ff.heartbeat)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if membership != nil {
			membership.Leave()
		}
		return err
	case s := <-sig:
		logger.Info("received signal, draining", "signal", s.String())
	}

	// Leave the fleet before draining: the coordinator stops dispatching
	// here (its remaining cells remap or compute locally) while this
	// daemon finishes the cells it already accepted.
	if membership != nil {
		membership.Leave()
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if drainErr != nil {
		logger.Error("drain failed", "err", drainErr)
	}
	// The drain may have consumed its whole budget; in-flight HTTP
	// responses (a table fetch, an SSE subscriber) still get their own
	// grace window to complete.
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutdownCancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && drainErr == nil {
		return fmt.Errorf("shutdown: %w", err)
	} else if err != nil {
		logger.Warn("shutdown", "err", err)
	}
	if err := <-errCh; err != nil && drainErr == nil {
		return err
	}
	if drainErr == nil {
		// Drained clean: a private temp store has no further use. An
		// abandoned drain skips this — its jobs still write there.
		if err := srv.Close(); err != nil {
			logger.Warn("removing result store", "err", err)
		}
	}
	// A timed-out drain abandoned running jobs; exit nonzero with that
	// as the cause — it subsumes any secondary shutdown timeout (an
	// SSE subscriber to an abandoned job keeps its handler open).
	return drainErr
}
