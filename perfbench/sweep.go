package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pacram/internal/runner"
	"pacram/internal/scenario"
	"pacram/internal/sim"
	"pacram/internal/trace"
)

// sweepWorkload is one spec swept end to end through scenario.Plan.Run,
// the path `scenario run` takes.
type sweepWorkload struct {
	name string
	spec func(seed, insts uint64) ([]byte, error)
	// diskStore gives every sweep a fresh disk store, as `scenario run
	// -cache DIR` on a new sweep does; otherwise the sweep runs storeless.
	diskStore bool
}

// runSweep measures repeated sweeps of one seeded spec (untraced), then,
// when traced, one more sweep with every layer hook attached followed by
// a direct sim.Run of each cell that checks the pool's results.
func runSweep(cfg config, w sweepWorkload) (*outcome, error) {
	out := newOutcome()
	doc, err := w.spec(cfg.seed, cfg.insts)
	if err != nil {
		return nil, err
	}

	// Set-up: the executable's build identity is hashed once per process,
	// on first store use (a scratch PutCell pays it here rather than in
	// the first sweep); spec load and compile plus store open follow,
	// repeated so their share is a median.
	start := time.Now()
	if err := runner.PutCell(runner.NewMemStore(0), "setup", "perfbench", "setup", 0); err != nil {
		return nil, err
	}
	buildID := time.Since(start).Seconds()
	var plan *scenario.Plan
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		start := time.Now()
		if plan, err = compileSpec(doc); err != nil {
			return nil, err
		}
		if w.diskStore {
			_, dir, err := cfg.freshDiskStore()
			if err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setup := buildID + quantile(setups, 0.5)

	// Untraced sweeps: the end-to-end figures. The first is a warm-up
	// whose table is the reference the others must repeat; it is not
	// timed, as it alone pays for growing the heap to its working size.
	var ref []byte
	var walls, cpus []float64
	var deadline time.Time
	cfg.cal.calibrate()
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		var store runner.Store
		var dir string
		if w.diskStore {
			if store, dir, err = cfg.freshDiskStore(); err != nil {
				return nil, err
			}
		}
		cpu0 := cpuTime()
		start := time.Now()
		tbl, err := plan.Run(scenario.RunOptions{Parallel: cfg.workers, Store: store})
		var got []byte
		if err == nil {
			got = render(tbl)
		}
		wall := time.Since(start)
		cpu := cpuTime() - cpu0
		if dir != "" {
			os.RemoveAll(dir)
		}
		out.attempted++
		switch {
		case err != nil:
			out.fail("sweep %d: %v", n, err)
		case ref == nil:
			ref = cfg.corruptRef(w.name, got)
		case !bytes.Equal(got, ref):
			out.fail("sweep %d: table bytes differ from the first sweep of seed %d", n, cfg.seed)
		}
		if n == 0 {
			deadline = time.Now().Add(cfg.seconds)
			continue
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		cfg.cal.calibrate()
	}
	// The gated figures are the medians over the run's sweeps, scaled
	// to the reference host (see calib.go). The raw latency distribution
	// is reported beside them, ungated.
	med := quantile(walls, 0.5)
	sweep := med * cfg.cal.wallScale()
	q, label := tailQuantile(len(walls))
	out.set("setup_s", setup*cfg.cal.wallScale())
	out.set("sweep_s", sweep)
	out.set("cpu_s", quantile(cpus, 0.5)*cfg.cal.cpuScale())
	out.set("jobs_per_s", 1/sweep)
	out.set("bench.host_slowdown", 1/cfg.cal.wallScale())
	out.set("job_p50_ms", 1000*med)
	out.set("job_p99_ms", 1000*quantile(walls, q))
	out.note("%d timed sweeps, raw median %.3f s, host slowdown %.3f; job_p99_ms is the %s",
		len(walls), med, 1/cfg.cal.wallScale(), label)
	out.set("peak_rss_mb", peakRSSMB())

	if cfg.trace {
		if err := tracedSweep(cfg, w, doc, ref, med, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tracedSweep runs one sweep with the store decorator and event hook
// attached, then re-simulates every cell directly with profiling and
// wrapped generators, and fills the per-layer metrics.
func tracedSweep(cfg config, w sweepWorkload, doc, ref []byte, untracedWall float64, out *outcome) error {
	rec := newRecorder(traceName(w.name, cfg.seed))
	out.rec = rec

	start := time.Now()
	plan, err := compileSpec(doc)
	if err != nil {
		return err
	}
	rec.add(0, "scenario.compile", start, time.Now())
	out.set("scenario.compile_ms", float64(time.Since(start))/1e6)

	// The traced sweep always stores: a fresh disk store where the
	// untraced sweeps use one, an in-memory store otherwise. The stored
	// envelopes are how the pool's per-cell results are read back.
	var backend runner.Store
	if w.diskStore {
		disk, dir, err := cfg.freshDiskStore()
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		backend = disk
	} else {
		backend = runner.NewMemStore(0)
	}
	stack := runner.NewTiered(backend)
	before := stack.Stats()
	sweepID := rec.reserve()
	store := newTimedStore(stack, rec, sweepID, true)

	var mu sync.Mutex
	type timedEvent struct {
		ev runner.Event
		at time.Time
	}
	var events []timedEvent
	onEvent := func(ev runner.Event) {
		at := time.Now()
		mu.Lock()
		events = append(events, timedEvent{ev, at})
		mu.Unlock()
	}
	sweepStart := time.Now()
	tbl, err := plan.Run(scenario.RunOptions{Parallel: cfg.workers, Store: store, OnEvent: onEvent})
	sweepEnd := time.Now()
	out.attempted++
	if err != nil {
		out.fail("traced sweep: %v", err)
		return nil
	}
	rec.addAs(sweepID, 0, "sweep", sweepStart, sweepEnd)
	if got := render(tbl); !bytes.Equal(got, ref) {
		out.fail("traced sweep: table bytes differ with the store decorator and event hook attached")
	}
	if err := store.reconcile(stack, before); err != nil {
		out.fail("%v", err)
	}
	wall := sweepEnd.Sub(sweepStart)
	out.set("bench.trace_overhead", wall.Seconds()/untracedWall-1)

	// Runner layer, from the events.
	var computed, cached, coalesced int
	var waits, computes []float64
	var lastEvent time.Time
	var busy time.Duration
	for _, te := range events {
		ev := te.ev
		switch {
		case ev.Cached:
			cached++
		case ev.Coalesced:
			coalesced++
		default:
			computed++
			computes = append(computes, float64(ev.ComputeNanos)/1e6)
			busy += time.Duration(ev.ComputeNanos)
		}
		waits = append(waits, float64(ev.WaitNanos)/1e6)
		computeStart := te.at.Add(-time.Duration(ev.ComputeNanos))
		rec.add(sweepID, "runner.wait", computeStart.Add(-time.Duration(ev.WaitNanos)), computeStart)
		rec.add(sweepID, "runner.compute", computeStart, te.at)
		if te.at.After(lastEvent) {
			lastEvent = te.at
		}
	}
	rec.add(sweepID, "scenario.assemble", lastEvent, sweepEnd)
	out.set("scenario.assemble_ms", float64(sweepEnd.Sub(lastEvent))/1e6)
	out.set("runner.computed", float64(computed))
	out.set("runner.cached", float64(cached))
	out.set("runner.coalesced", float64(coalesced))
	out.set("runner.wait_ms", mean(waits))
	out.set("runner.compute_p50_ms", quantile(computes, 0.5))
	out.set("runner.busy_frac", float64(busy)/(float64(cfg.workers)*float64(wall)))
	store.setMetrics(out)

	pooled, err := store.cellResults()
	if err != nil {
		out.fail("%v", err)
		return nil
	}
	return directCells(cfg, plan, pooled, rec, out)
}

// directCells re-simulates every cell of the plan outside the runner,
// with profiling on and each core's generator wrapped, and checks each
// result against the one the pool stored (Profile ignored). The sim and
// generator metrics and the exact simulated counts come from this pass.
func directCells(cfg config, plan *scenario.Plan, pooled map[string]json.RawMessage, rec *recorder, out *outcome) error {
	cells := plan.Cells()
	runs := make([]cellRun, len(cells))
	var nextCalls, nextNanos atomic.Int64
	passID := rec.reserve()
	passStart := time.Now()
	var wg sync.WaitGroup
	work := make(chan int)
	for range cfg.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				runs[i] = simulateCell(cells[i], &nextCalls, &nextNanos, rec, passID)
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	rec.addAs(passID, 0, "check.direct", passStart, time.Now())

	var p sim.Profile
	var insts, acts, refs, vrrs, rfms uint64
	var partial []float64
	for i, r := range runs {
		out.attempted++
		if r.err != nil {
			out.fail("cell %s: direct run: %v", cells[i].Key, r.err)
			continue
		}
		got, err := json.Marshal(r.res)
		if err != nil {
			out.fail("cell %s: %v", cells[i].Key, err)
			continue
		}
		if want, ok := pooled[cells[i].Key]; !ok || !bytes.Equal(got, want) {
			out.fail("cell %s: direct sim.Run differs from the pool's result", cells[i].Key)
		}
		opt, err := cells[i].Options()
		if err != nil {
			return err
		}
		cores := uint64(max(len(opt.Workloads), len(opt.Generators)))
		insts += cores * (opt.Instructions + opt.Warmup)
		acts += r.res.Stats.Acts
		refs += r.res.Stats.Refs
		vrrs += r.res.Stats.VRRs
		rfms += r.res.Stats.RFMs
		partial = append(partial, r.res.PartialFraction)
		p.SimCycles += r.prof.SimCycles
		p.Steps += r.prof.Steps
		p.Leaps += r.prof.Leaps
		p.LeapCycles += r.prof.LeapCycles
		p.Windows += r.prof.Windows
		p.ParallelWindows += r.prof.ParallelWindows
		p.WallNanos += r.prof.WallNanos
		p.CoreNanos += r.prof.CoreNanos
		p.CtrlNanos += r.prof.CtrlNanos
		p.WindowNanos += r.prof.WindowNanos
		p.MergeNanos += r.prof.MergeNanos
	}
	frac := func(n int64) float64 {
		if p.WallNanos == 0 {
			return 0
		}
		return float64(n) / float64(p.WallNanos)
	}
	if p.WallNanos > 0 {
		out.set("sim.minstr_per_s", float64(insts)/(float64(p.WallNanos)/1e9)/1e6)
	}
	out.set("sim.core_frac", frac(p.CoreNanos))
	out.set("sim.ctrl_frac", frac(p.CtrlNanos))
	out.set("sim.window_frac", frac(p.WindowNanos))
	out.set("sim.merge_frac", frac(p.MergeNanos))
	out.set("sim.steps", float64(p.Steps))
	out.set("sim.leaps", float64(p.Leaps))
	if p.SimCycles > 0 {
		out.set("sim.leap_cycle_frac", float64(p.LeapCycles)/float64(p.SimCycles))
	}
	out.set("sim.windows", float64(p.Windows))
	out.set("sim.parallel_windows", float64(p.ParallelWindows))
	if calls := nextCalls.Load(); calls > 0 {
		out.set("trace.next_calls", float64(calls))
		out.set("trace.next_ns", float64(nextNanos.Load())/float64(calls))
	}
	out.set("sim.cycles", float64(p.SimCycles))
	out.set("memsys.acts", float64(acts))
	out.set("memsys.refs", float64(refs))
	out.set("mitigation.vrrs", float64(vrrs))
	out.set("mitigation.rfms", float64(rfms))
	out.set("core.partial_frac", mean(partial))
	return nil
}

// cellRun is one cell's direct simulation: the result with its Profile
// split off.
type cellRun struct {
	res  sim.Result
	prof *sim.Profile
	err  error
}

// simulateCell runs one cell the way the plan's job does, but with
// profiling on and every core's generator wrapped to count Next calls.
// The generators are built with the engine's own per-core seeds, so the
// simulation is the one the pool ran.
func simulateCell(c scenario.Cell, calls, nanos *atomic.Int64, rec *recorder, parent int64) (r cellRun) {
	opt, err := c.Options()
	if err != nil {
		r.err = err
		return r
	}
	if len(opt.Generators) == 0 {
		opt.Generators = make([]trace.Generator, len(opt.Workloads))
		for i, spec := range opt.Workloads {
			if opt.Generators[i], err = trace.New(spec, sim.WorkloadSeed(opt.Seed, i)); err != nil {
				r.err = err
				return r
			}
		}
		opt.Workloads = nil
	}
	for i, g := range opt.Generators {
		opt.Generators[i] = countingGen{Generator: g, calls: calls, nanos: nanos}
	}
	opt.Profile = true
	start := time.Now()
	res, err := sim.Run(opt)
	end := time.Now()
	if err != nil {
		r.err = err
		return r
	}
	r.prof, res.Profile = res.Profile, nil
	r.res = res

	// The engine reports its wall-time split as totals of interleaved
	// slices, so the sub-spans are laid end to end from the run's start:
	// their lengths are exact, their positions are not. The run's own
	// self time is what none of the slices covers.
	id := rec.reserve()
	rec.addAs(id, parent, "sim.run", start, end)
	at := start
	sub := func(parent int64, name string, n int64) int64 {
		if n <= 0 {
			return 0
		}
		s := at
		at = at.Add(time.Duration(n))
		return rec.add(parent, name, s, at)
	}
	sub(id, "sim.core", r.prof.CoreNanos)
	sub(id, "sim.ctrl", r.prof.CtrlNanos)
	winStart := at
	if win := sub(id, "sim.window", r.prof.WindowNanos); win != 0 {
		rec.add(win, "sim.merge", winStart, winStart.Add(time.Duration(r.prof.MergeNanos)))
	}
	return r
}
