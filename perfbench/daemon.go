package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pacram/internal/runner"
	"pacram/internal/scenario"
	"pacram/internal/service"
)

// daemonSetups is how many times a run builds and warms a server; the
// median is reported.
const daemonSetups = 7

// mixEntry is one submission the daemon's clients pick from: a catalog
// name or an inline spec, with the table a local run renders for it.
type mixEntry struct {
	name string
	req  service.SubmitRequest
	doc  []byte // the spec document, compiled locally in the traced pass
	ref  []byte
}

// daemon is an in-process sweep service on a loopback listener.
type daemon struct {
	srv    *service.Server
	ts     *httptest.Server
	client *service.Client
}

func startDaemon(workers int, storeDir string) (*daemon, error) {
	srv, err := service.New(service.Config{Workers: workers, CacheDir: storeDir})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &daemon{srv: srv, ts: ts, client: service.NewClient(ts.URL)}, nil
}

// close stops the listener, waits for accepted jobs and releases the
// server.
func (d *daemon) close() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		return err
	}
	return d.srv.Close()
}

// jobTiming is one submission's client-side phases.
type jobTiming struct {
	submit, watch, table time.Duration
	events               int
}

// doJob submits one entry, follows its SSE stream to the end, fetches
// the table and checks it against the reference bytes.
func doJob(c *service.Client, e *mixEntry) (jobTiming, error) {
	var t jobTiming
	t0 := time.Now()
	st, err := c.Submit(e.req)
	t1 := time.Now()
	t.submit = t1.Sub(t0)
	if err != nil {
		return t, fmt.Errorf("%s: submit: %w", e.name, err)
	}
	fin, err := c.Watch(context.Background(), st.ID, func(service.CellEvent) { t.events++ })
	t2 := time.Now()
	t.watch = t2.Sub(t1)
	if err != nil {
		return t, fmt.Errorf("%s: watch: %w", e.name, err)
	}
	if fin.State != service.StateDone {
		return t, fmt.Errorf("%s: job %s ended %s: %s", e.name, st.ID, fin.State, fin.Error)
	}
	tbl, err := c.Table(st.ID)
	t.table = time.Since(t2)
	if err != nil {
		return t, fmt.Errorf("%s: table: %w", e.name, err)
	}
	if !bytes.Equal(tbl, e.ref) {
		return t, fmt.Errorf("%s: served table differs from the local reference", e.name)
	}
	return t, nil
}

// buildMix lists the daemon's submissions: every catalog entry by name
// plus both generated specs inline, each with its reference table
// rendered by scenario.Run into the shared disk store.
func buildMix(cfg config, storeDir string) ([]mixEntry, error) {
	var mix []mixEntry
	names := cfg.catalog
	if names == nil {
		specs, err := scenario.Catalog()
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			names = append(names, s.Name)
		}
	}
	for _, n := range names {
		s, err := scenario.ByName(n)
		if err != nil {
			return nil, err
		}
		doc, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		mix = append(mix, mixEntry{name: n, req: service.SubmitRequest{Scenario: n}, doc: doc})
	}
	for _, g := range []struct {
		name string
		spec func(seed, insts uint64) ([]byte, error)
	}{{"paper-sweep", paperSweepSpec}, {"wide-hammer", wideHammerSpec}} {
		doc, err := g.spec(cfg.seed, cfg.insts)
		if err != nil {
			return nil, err
		}
		mix = append(mix, mixEntry{name: g.name, req: service.SubmitRequest{Spec: doc}, doc: doc})
	}
	for i := range mix {
		s, err := scenario.Parse(mix[i].doc)
		if err != nil {
			return nil, err
		}
		tbl, err := scenario.Run(s, scenario.RunOptions{Parallel: cfg.workers, CacheDir: storeDir})
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", mix[i].name, err)
		}
		mix[i].ref = cfg.corruptRef(mix[i].name, render(tbl))
	}
	return mix, nil
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	latencies []float64 // ms, submit to table bytes
	rounds    []float64 // s
	cpus      []float64 // s per round
	timings   []jobTiming
}

// calEvery is how often the untraced closed loop pauses between rounds
// to calibrate the host's speed.
const calEvery = 2 * time.Second

// closedLoop runs rounds until dur has passed (at least two). In each
// round every client submits every mix entry once, back to back, in an
// order its own seeded generator picks; the round ends when all clients
// are done, and its wall time is the daemon's sweep_s. Every round does
// the same work whatever the seed, so seeds move only the interleaving.
// With a calibrator, the host's speed is calibrated every calEvery
// between rounds, outside the timed work.
func closedLoop(d *daemon, mix []mixEntry, rngs []*rand.Rand, dur time.Duration, cal *calibrator, rec *recorder, out *outcome) loopStats {
	var ls loopStats
	var mu sync.Mutex
	cal.calibrate()
	lastCal := time.Now()
	deadline := time.Now().Add(dur)
	for len(ls.rounds) < 2 || time.Now().Before(deadline) {
		if cal != nil && time.Since(lastCal) >= calEvery {
			cal.calibrate()
			lastCal = time.Now()
		}
		cpu0 := cpuTime()
		start := time.Now()
		var wg sync.WaitGroup
		for k := range rngs {
			picks := rngs[k].Perm(len(mix))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, p := range picks {
					js := time.Now()
					t, err := doJob(d.client, &mix[p])
					je := time.Now()
					id := rec.reserve()
					rec.add(id, "service.submit", js, js.Add(t.submit))
					rec.add(id, "service.watch", js.Add(t.submit), js.Add(t.submit+t.watch))
					rec.add(id, "service.table", js.Add(t.submit+t.watch), js.Add(t.submit+t.watch+t.table))
					rec.addAs(id, 0, "service.job", js, je)
					mu.Lock()
					out.attempted++
					if err != nil {
						out.fail("%v", err)
					}
					ls.latencies = append(ls.latencies, float64(je.Sub(js))/1e6)
					ls.timings = append(ls.timings, t)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		ls.rounds = append(ls.rounds, time.Since(start).Seconds())
		ls.cpus = append(ls.cpus, (cpuTime() - cpu0).Seconds())
	}
	return ls
}

// runDaemon measures the warm daemon: set-up (server construction plus
// one submission of every entry, so the store is warm), then the
// untraced closed loop, then, when traced, a local warm replay of every
// entry through the decorated store stack and a traced closed loop.
func runDaemon(cfg config) (*outcome, error) {
	out := newOutcome()
	base, err := os.MkdirTemp(filepath.Join(cfg.workdir, "tmp"), "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	storeDir := filepath.Join(base, "store")
	mix, err := buildMix(cfg, storeDir)
	if err != nil {
		return nil, err
	}

	// Set-up, repeated: every server reads the references' disk store,
	// so its warm-up submissions are store hits promoted into its memory
	// tier — the state of a deployment that has served these specs.
	var d *daemon
	var setups []float64
	for range daemonSetups {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if d, err = startDaemon(cfg.workers, storeDir); err != nil {
			return nil, err
		}
		for i := range mix {
			_, err := doJob(d.client, &mix[i])
			out.attempted++
			if err != nil {
				out.fail("warm-up: %v", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()

	rngs := make([]*rand.Rand, cfg.workers)
	for k := range rngs {
		rngs[k] = rand.New(rand.NewPCG(cfg.seed, uint64(k)))
	}
	ls := closedLoop(d, mix, rngs, cfg.seconds, cfg.cal, nil, out)
	// Every round does the same work, so the gated figures are the
	// medians over the run's rounds, scaled to the reference host (see
	// calib.go). The raw latency distribution over all jobs is reported
	// beside them, ungated.
	med := quantile(ls.rounds, 0.5)
	round := med * cfg.cal.wallScale()
	q, label := tailQuantile(len(ls.latencies))
	out.set("setup_s", quantile(setups, 0.5)*cfg.cal.wallScale())
	out.set("sweep_s", round)
	out.set("cpu_s", quantile(ls.cpus, 0.5)*cfg.cal.cpuScale())
	out.set("jobs_per_s", float64(len(rngs)*len(mix))/round)
	out.set("bench.host_slowdown", 1/cfg.cal.wallScale())
	out.set("job_p50_ms", quantile(ls.latencies, 0.5))
	out.set("job_p99_ms", quantile(ls.latencies, q))
	out.note("%d rounds, raw median %.4f s, host slowdown %.3f; job_p99_ms is the %s of %d jobs",
		len(ls.rounds), med, 1/cfg.cal.wallScale(), label, len(ls.latencies))
	out.set("peak_rss_mb", peakRSSMB())

	if cfg.trace {
		rec := newRecorder(traceName(cfg.workload, cfg.seed))
		out.rec = rec
		if err := warmReplay(cfg, mix, storeDir, rec, out); err != nil {
			return nil, err
		}
		traced := closedLoop(d, mix, rngs, cfg.seconds/2, nil, rec, out)
		var submits, watches, tables, events []float64
		for _, t := range traced.timings {
			submits = append(submits, float64(t.submit)/1e6)
			watches = append(watches, float64(t.watch)/1e6)
			tables = append(tables, float64(t.table)/1e6)
			events = append(events, float64(t.events))
		}
		out.set("service.submit_ms", quantile(submits, 0.5))
		out.set("service.watch_ms", quantile(watches, 0.5))
		out.set("service.table_ms", quantile(tables, 0.5))
		out.set("service.sse_events", mean(events))
		out.set("bench.trace_overhead", quantile(traced.rounds, 0.5)/quantile(ls.rounds, 0.5)-1)
	}
	return out, nil
}

// warmReplay runs every entry locally through scenario compile and
// Plan.Run against a warm memory-over-disk store stack like the
// server's, with the store decorator and event hook attached: the work
// the server does per submission, timed from outside it.
func warmReplay(cfg config, mix []mixEntry, storeDir string, rec *recorder, out *outcome) error {
	disk, err := runner.NewDiskStore(storeDir)
	if err != nil {
		return err
	}
	stack := runner.NewTiered(runner.NewMemStore(0), disk)
	replay := func(store runner.Store, rec *recorder) ([]float64, []float64, []runner.Event) {
		var compiles, assembles []float64
		var events []runner.Event
		for i := range mix {
			e := &mix[i]
			start := time.Now()
			plan, err := compileSpec(e.doc)
			compiled := time.Now()
			if err != nil {
				out.fail("replay %s: %v", e.name, err)
				continue
			}
			var mu sync.Mutex
			var last time.Time
			tbl, err := plan.Run(scenario.RunOptions{Parallel: cfg.workers, Store: store,
				OnEvent: func(ev runner.Event) {
					at := time.Now()
					mu.Lock()
					events = append(events, ev)
					if at.After(last) {
						last = at
					}
					mu.Unlock()
				}})
			end := time.Now()
			out.attempted++
			if err != nil {
				out.fail("replay %s: %v", e.name, err)
				continue
			}
			if !bytes.Equal(render(tbl), e.ref) {
				out.fail("replay %s: table differs from the reference", e.name)
			}
			rec.add(0, "scenario.compile", start, compiled)
			runID := rec.add(0, "scenario.run", compiled, end)
			rec.add(runID, "scenario.assemble", last, end)
			compiles = append(compiles, float64(compiled.Sub(start))/1e6)
			assembles = append(assembles, float64(end.Sub(last))/1e6)
		}
		return compiles, assembles, events
	}
	// The first pass promotes every cell from disk into the memory
	// tier; the second, measured one sees the server's warm state.
	replay(stack, nil)
	before := stack.Stats()
	store := newTimedStore(stack, rec, 0, false)
	compiles, assembles, events := replay(store, rec)
	if err := store.reconcile(stack, before); err != nil {
		out.fail("%v", err)
	}
	var cached, coalesced, computed int
	var waits []float64
	for _, ev := range events {
		switch {
		case ev.Cached:
			cached++
		case ev.Coalesced:
			coalesced++
		default:
			computed++
		}
		waits = append(waits, float64(ev.WaitNanos)/1e6)
	}
	if computed > 0 {
		out.fail("warm replay computed %d cells; the store should hold them all", computed)
	}
	out.set("scenario.compile_ms", mean(compiles))
	out.set("scenario.assemble_ms", mean(assembles))
	out.set("runner.cached", float64(cached))
	out.set("runner.coalesced", float64(coalesced))
	out.set("runner.computed", float64(computed))
	out.set("runner.wait_ms", mean(waits))
	store.setMetrics(out)
	return nil
}
