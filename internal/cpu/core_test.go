package cpu

import (
	"testing"

	"pacram/internal/trace"
	"pacram/internal/xrand"
)

// fakeMem is a configurable memory port.
type fakeMem struct {
	latency   int
	queue     []func()
	countdown []int
	rejects   int
	issued    int
	full      bool
}

func (m *fakeMem) Issue(addr uint64, write bool, done func()) bool {
	if m.full {
		m.rejects++
		return false
	}
	m.issued++
	if done != nil {
		m.queue = append(m.queue, done)
		m.countdown = append(m.countdown, m.latency)
	}
	return true
}

func (m *fakeMem) tick() {
	for i := 0; i < len(m.queue); {
		m.countdown[i]--
		if m.countdown[i] <= 0 {
			m.queue[i]()
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.countdown = append(m.countdown[:i], m.countdown[i+1:]...)
			continue
		}
		i++
	}
}

func gen(t testing.TB, spec trace.Spec) trace.Generator {
	t.Helper()
	g, err := trace.New(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestComputeBoundIPCNearWidth(t *testing.T) {
	// A pure-compute workload (huge bubbles, instant memory) should
	// retire at nearly the full width.
	g := gen(t, trace.Spec{Name: "c", BubbleMean: 1000, Pattern: trace.PatternRandom, FootprintMB: 16})
	mem := &fakeMem{latency: 1}
	c := New(0, g, mem)
	for i := 0; i < 10000; i++ {
		c.Tick()
		mem.tick()
	}
	if ipc := c.IPC(); ipc < 3.5 {
		t.Fatalf("compute-bound IPC %.2f, want ~4", ipc)
	}
}

func TestMemoryLatencyThrottlesIPC(t *testing.T) {
	spec := trace.Spec{Name: "m", BubbleMean: 2, Pattern: trace.PatternRandom, FootprintMB: 16}
	run := func(latency int) float64 {
		c := New(0, gen(t, spec), &fakeMem{latency: latency})
		mem := c.mem.(*fakeMem)
		for i := 0; i < 20000; i++ {
			c.Tick()
			mem.tick()
		}
		return c.IPC()
	}
	fast, slow := run(5), run(200)
	if slow >= fast {
		t.Fatalf("IPC did not drop with memory latency: %.2f -> %.2f", fast, slow)
	}
	if slow > 1.0 {
		t.Fatalf("latency-200 IPC %.2f implausibly high for a memory-bound trace", slow)
	}
}

func TestWindowLimitsMLP(t *testing.T) {
	// With enormous latency, outstanding loads are bounded by the
	// window size.
	spec := trace.Spec{Name: "w", BubbleMean: 0, Pattern: trace.PatternRandom, FootprintMB: 16}
	mem := &fakeMem{latency: 1 << 30}
	c := New(0, gen(t, spec), mem)
	for i := 0; i < 1000; i++ {
		c.Tick()
	}
	if c.OutstandingLoads() > DefaultWindowSize {
		t.Fatalf("%d outstanding loads exceed the window", c.OutstandingLoads())
	}
	if c.OutstandingLoads() < DefaultWindowSize/2 {
		t.Fatalf("only %d outstanding loads; window not exploited", c.OutstandingLoads())
	}
	if c.Retired() != 0 {
		t.Fatalf("retired %d instructions with no load ever completing", c.Retired())
	}
}

func TestQueueFullStallsCore(t *testing.T) {
	spec := trace.Spec{Name: "q", BubbleMean: 0, Pattern: trace.PatternRandom, FootprintMB: 16}
	mem := &fakeMem{full: true}
	c := New(0, gen(t, spec), mem)
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	if mem.issued != 0 {
		t.Fatal("requests issued despite a full queue")
	}
	if mem.rejects == 0 {
		t.Fatal("core never retried the stalled access")
	}
	// Unblock and verify progress resumes.
	mem.full = false
	mem.latency = 2
	for i := 0; i < 1000; i++ {
		c.Tick()
		mem.tick()
	}
	if c.Retired() == 0 {
		t.Fatal("core did not recover after queue unblocked")
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// All-write trace with instant acceptance: should retire at
	// near-full width even though no callbacks ever fire.
	spec := trace.Spec{Name: "st", BubbleMean: 1, Pattern: trace.PatternRandom,
		FootprintMB: 16, WriteFrac: 1.0}
	mem := &fakeMem{}
	c := New(0, gen(t, spec), mem)
	for i := 0; i < 10000; i++ {
		c.Tick()
	}
	if ipc := c.IPC(); ipc < 3.0 {
		t.Fatalf("store-only IPC %.2f; stores must not block", ipc)
	}
}

func TestCountersConsistent(t *testing.T) {
	spec := trace.Spec{Name: "x", BubbleMean: 5, Pattern: trace.PatternRandom,
		FootprintMB: 16, WriteFrac: 0.3}
	mem := &fakeMem{latency: 10}
	c := New(0, gen(t, spec), mem)
	for i := 0; i < 5000; i++ {
		c.Tick()
		mem.tick()
	}
	if c.Loads == 0 || c.Stores == 0 {
		t.Fatal("loads/stores not counted")
	}
	if c.ID() != 0 {
		t.Fatal("ID wrong")
	}
	if c.Cycles() != 5000 {
		t.Fatalf("cycles %d", c.Cycles())
	}
}

func BenchmarkCoreTick(b *testing.B) {
	spec := trace.Spec{Name: "b", BubbleMean: 10, Pattern: trace.PatternRandom, FootprintMB: 64}
	g, _ := trace.New(spec, 1)
	mem := &fakeMem{latency: 50}
	c := New(0, g, mem)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick()
		mem.tick()
	}
}

// probedMem is fakeMem plus the QueueProbe surface the memory system
// provides: CanAccept mirrors Issue's admission check exactly.
type probedMem struct{ fakeMem }

func (m *probedMem) CanAccept(addr uint64, write bool) bool { return !m.full }

// TestNextEventSoundness is the core-side half of the event-horizon
// contract (the controller's half lives in memsys): whenever NextEvent
// reports the core stalled, the next Tick must change nothing but the
// cycle counter — Progress is the observable — so the simulation loop
// may skip the tick entirely and leap.
func TestNextEventSoundness(t *testing.T) {
	g := gen(t, trace.Spec{Name: "m", BubbleMean: 2, Pattern: trace.PatternRandom, FootprintMB: 16})
	mem := &probedMem{fakeMem{latency: 40}}
	c := New(0, g, mem)

	stalled, runnable := 0, 0
	for i := 0; i < 30_000; i++ {
		// Stretches of full queues and of long-latency completions.
		mem.full = i%1000 >= 700
		ne := c.NextEvent()
		if ne != 0 && ne != ^uint64(0) {
			t.Fatalf("NextEvent returned %d; want 0 (runnable) or MaxUint64 (stalled)", ne)
		}
		before, retired := c.Progress(), c.Retired()
		c.Tick()
		if ne != 0 {
			stalled++
			if c.Progress() != before || c.Retired() != retired {
				t.Fatalf("tick %d: NextEvent promised a stall but the core progressed", i)
			}
		} else {
			runnable++
		}
		mem.tick()
	}
	if stalled == 0 || runnable == 0 {
		t.Fatalf("degenerate run: %d stalled, %d runnable ticks", stalled, runnable)
	}
}

// TestNextEventWithoutProbe: a port that cannot report queue occupancy
// makes the core always runnable — the safe default that simply never
// leaps on the core's behalf.
func TestNextEventWithoutProbe(t *testing.T) {
	g := gen(t, trace.Spec{Name: "p", BubbleMean: 0, Pattern: trace.PatternRandom, FootprintMB: 16})
	mem := &fakeMem{latency: 1 << 30, full: true} // nothing ever completes or enqueues
	c := New(0, g, mem)
	for i := 0; i < 200; i++ {
		if ne := c.NextEvent(); ne != 0 {
			t.Fatalf("probeless port must report runnable, got %d", ne)
		}
		c.Tick()
	}
}

// refCore is the slot-array core the counter-based window replaced:
// one window entry per instruction, retired and dispatched one at a
// time. It is kept as the reference model for TestCoreMatchesSlotModel.
type refCore struct {
	gen    trace.Generator
	mem    MemoryPort
	probe  QueueProbe
	window []bool // done flag per slot
	head   int
	count  int
	fns    []func()

	bubblesLeft int
	memRec      trace.Record
	havePending bool

	retired, cycles, progress uint64
	loadsOut                  int
	loads, stores             uint64
}

func newRefCore(gen trace.Generator, mem MemoryPort) *refCore {
	probe, _ := mem.(QueueProbe)
	c := &refCore{gen: gen, mem: mem, probe: probe, window: make([]bool, DefaultWindowSize)}
	c.fns = make([]func(), len(c.window))
	for i := range c.fns {
		idx := i
		c.fns[i] = func() {
			c.window[idx] = true
			c.loadsOut--
		}
	}
	return c
}

func (c *refCore) tick() {
	c.cycles++
	for n := 0; n < DefaultWidth && c.count > 0; n++ {
		if !c.window[c.head] {
			break
		}
		c.head = (c.head + 1) % len(c.window)
		c.count--
		c.retired++
		c.progress++
	}
	for n := 0; n < DefaultWidth && c.count < len(c.window); n++ {
		if !c.havePending {
			c.memRec = c.gen.Next()
			c.bubblesLeft = c.memRec.Bubbles
			c.havePending = true
		}
		if c.bubblesLeft > 0 {
			c.bubblesLeft--
			c.push()
			continue
		}
		rec := c.memRec
		if rec.Write {
			if !c.mem.Issue(rec.Addr, true, nil) {
				break
			}
			c.stores++
			c.havePending = false
			c.push()
			continue
		}
		idx := (c.head + c.count) % len(c.window)
		c.window[idx] = false
		if !c.mem.Issue(rec.Addr, false, c.fns[idx]) {
			break
		}
		c.count++
		c.loads++
		c.loadsOut++
		c.progress++
		c.havePending = false
	}
}

func (c *refCore) push() {
	c.window[(c.head+c.count)%len(c.window)] = true
	c.count++
	c.progress++
}

func (c *refCore) nextEvent() uint64 {
	if c.count > 0 && c.window[c.head] {
		return 0
	}
	if c.count < len(c.window) {
		if !c.havePending || c.bubblesLeft > 0 {
			return 0
		}
		if c.probe == nil || c.probe.CanAccept(c.memRec.Addr, c.memRec.Write) {
			return 0
		}
	}
	return ^uint64(0)
}

// randomRecords draws a trace mixing back-to-back accesses, short
// bubble runs and long ones, about a third of them stores.
func randomRecords(seed uint64, n int) []trace.Record {
	r := xrand.New(seed)
	recs := make([]trace.Record, n)
	for i := range recs {
		var bubbles int
		switch p := r.Float64(); {
		case p < 0.3:
		case p < 0.6:
			bubbles = 1 + r.Intn(7)
		default:
			bubbles = 8 + r.Intn(400)
		}
		recs[i] = trace.Record{Bubbles: bubbles, Addr: uint64(r.Intn(1<<20)) * 64, Write: r.Bool(0.3)}
	}
	return recs
}

// scriptMem is a probed memory port with seeded random completion
// latencies, including synchronous completions (latency 0) and
// outliers far beyond the window's drain time. Two instances with the
// same seed behave identically under identical Issue sequences.
type scriptMem struct {
	t       testing.TB
	r       *xrand.Rand
	full    bool
	forbid  bool // Issue fails the test
	calls   int
	now     int
	pending []scriptDone
}

type scriptDone struct {
	at   int
	done func()
}

func newScriptMem(t testing.TB, seed uint64) *scriptMem {
	return &scriptMem{t: t, r: xrand.New(seed)}
}

func (m *scriptMem) Issue(addr uint64, write bool, done func()) bool {
	m.calls++
	if m.forbid {
		m.t.Fatalf("Issue(%#x, write=%v) during a quiet run", addr, write)
	}
	if m.full {
		return false
	}
	if done == nil {
		return true
	}
	var lat int
	switch p := m.r.Float64(); {
	case p < 0.05:
		done() // synchronous completion
		return true
	case p < 0.85:
		lat = 1 + m.r.Intn(60)
	case p < 0.99:
		lat = 60 + m.r.Intn(300)
	default:
		lat = 1000 + m.r.Intn(3000)
	}
	m.pending = append(m.pending, scriptDone{at: m.now + lat, done: done})
	return true
}

func (m *scriptMem) CanAccept(addr uint64, write bool) bool { return !m.full }

// tick advances the port one cycle and fires due completions in issue
// order.
func (m *scriptMem) tick() {
	m.now++
	kept := m.pending[:0]
	for _, p := range m.pending {
		if p.at <= m.now {
			p.done()
		} else {
			kept = append(kept, p)
		}
	}
	m.pending = kept
}

// guardGen wraps a generator, counting Next calls and failing the test
// on any made while forbidden.
type guardGen struct {
	trace.Generator
	t      testing.TB
	forbid bool
	calls  int
}

func (g *guardGen) Next() trace.Record {
	g.calls++
	if g.forbid {
		g.t.Fatal("gen.Next during a quiet run")
	}
	return g.Generator.Next()
}

// fullSchedule toggles a port between accepting and full stretches of
// random length.
type fullSchedule struct {
	r    *xrand.Rand
	left int
	full bool
}

func (s *fullSchedule) next() bool {
	if s.left == 0 {
		s.full = !s.full
		if s.full {
			s.left = 1 + s.r.Intn(300)
		} else {
			s.left = 1 + s.r.Intn(900)
		}
	}
	s.left--
	return s.full
}

func replayOf(t testing.TB, recs []trace.Record) trace.Generator {
	t.Helper()
	g, err := trace.NewReplay("random", recs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCoreMatchesSlotModel drives the counter-based core and the
// slot-array reference model with the same random traces, completion
// latencies and full-queue stretches, and requires every observable to
// agree after every tick.
func TestCoreMatchesSlotModel(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		recs := randomRecords(seed, 3000)
		memC, memR := newScriptMem(t, seed), newScriptMem(t, seed)
		c := New(0, replayOf(t, recs), memC)
		ref := newRefCore(replayOf(t, recs), memR)
		sched := fullSchedule{r: xrand.New(seed ^ 0xf00)}
		for i := 0; i < 20_000; i++ {
			memC.full = sched.next()
			memR.full = memC.full
			if got, want := c.NextEvent(), ref.nextEvent(); got != want {
				t.Fatalf("seed %d tick %d: NextEvent %d, reference %d", seed, i, got, want)
			}
			c.Tick()
			ref.tick()
			if c.Retired() != ref.retired || c.Progress() != ref.progress || c.Cycles() != ref.cycles ||
				c.Loads != ref.loads || c.Stores != ref.stores || c.OutstandingLoads() != ref.loadsOut {
				t.Fatalf("seed %d tick %d: core retired=%d progress=%d cycles=%d loads=%d stores=%d out=%d; "+
					"reference retired=%d progress=%d cycles=%d loads=%d stores=%d out=%d",
					seed, i, c.Retired(), c.Progress(), c.Cycles(), c.Loads, c.Stores, c.OutstandingLoads(),
					ref.retired, ref.progress, ref.cycles, ref.loads, ref.stores, ref.loadsOut)
			}
			memC.tick()
			memR.tick()
		}
		if c.Loads == 0 || c.Stores == 0 || c.Retired() == 0 {
			t.Fatalf("seed %d: degenerate run: %d loads, %d stores, %d retired", seed, c.Loads, c.Stores, c.Retired())
		}
	}
}

// TestAdvanceQuietMatchesTicks is the property behind the engine's
// quiet leap: from any reachable state, AdvanceQuiet(QuietTicks(max,
// target)) leaves the core exactly as that many Ticks do on a port
// whose Issue, and a trace whose Next, fail the test; the count stops
// on the tick that first reaches target; and a run cut short of max
// and target ends where the next Tick really does reach the port or
// the trace.
func TestAdvanceQuietMatchesTicks(t *testing.T) {
	var blockedHead, fullWindow, doneUnretired, targetHit, stalled, longRuns int
	for seed := uint64(1); seed <= 12; seed++ {
		recs := randomRecords(seed, 3000)
		memA, memB := newScriptMem(t, seed), newScriptMem(t, seed)
		genB := &guardGen{Generator: replayOf(t, recs), t: t}
		a := New(0, replayOf(t, recs), memA)
		b := New(0, genB, memB)
		r := xrand.New(seed ^ 0xbeef)
		sched := fullSchedule{r: xrand.New(seed ^ 0xf00)}
		tickBoth := func() {
			memA.full = sched.next()
			memB.full = memA.full
			a.Tick()
			b.Tick()
			memA.tick()
			memB.tick()
		}
		for probe := 0; probe < 400; probe++ {
			for n := 1 + r.Intn(40); n > 0; n-- {
				tickBoth()
			}
			max := uint64(1 + r.Intn(600))
			target := uint64(0)
			if r.Bool(0.7) {
				target = a.Retired() + uint64(r.Intn(400))
			}

			if a.loadCount > 0 {
				head := a.loads[a.loadHead]
				if head.seq == a.retired && !head.done {
					blockedHead++
				}
				for i := 0; i < a.loadCount; i++ {
					if a.loads[(a.loadHead+i)&loadMask].done {
						doneUnretired++
						break
					}
				}
			}
			if a.dispatched-a.retired == DefaultWindowSize {
				fullWindow++
			}

			start := a.Retired()
			k := a.QuietTicks(max, target)
			if k > max {
				t.Fatalf("seed %d: QuietTicks(%d) = %d", seed, max, k)
			}
			a.AdvanceQuiet(k)
			memB.forbid, genB.forbid = true, true
			before := b.Progress()
			for i := uint64(1); i <= k; i++ {
				b.Tick()
				if target > start && b.Retired() >= target && i != k {
					t.Fatalf("seed %d: target %d reached on tick %d of a %d-tick run", seed, target, i, k)
				}
			}
			memB.forbid, genB.forbid = false, false
			if a.Retired() != b.Retired() || a.Progress() != b.Progress() || a.Cycles() != b.Cycles() ||
				a.Loads != b.Loads || a.Stores != b.Stores || a.OutstandingLoads() != b.OutstandingLoads() ||
				a.NextEvent() != b.NextEvent() {
				t.Fatalf("seed %d: after %d quiet ticks AdvanceQuiet gives retired=%d progress=%d cycles=%d, "+
					"Tick gives retired=%d progress=%d cycles=%d", seed, k,
					a.Retired(), a.Progress(), a.Cycles(), b.Retired(), b.Progress(), b.Cycles())
			}
			reached := target > start && b.Retired() >= target
			if reached {
				targetHit++
			}
			if k == max && b.Progress() == before && k > 1 {
				stalled++
			}
			if k >= 20 && b.Progress()-before >= 20 {
				longRuns++
			}
			if k < max && !reached {
				calls := memB.calls + genB.calls
				tickBoth()
				if memB.calls+genB.calls == calls {
					t.Fatalf("seed %d: quiet run ended after %d of %d ticks, but the next tick was quiet too", seed, k, max)
				}
			}
		}
	}
	for name, n := range map[string]int{"blocked head": blockedHead, "full window": fullWindow,
		"done-but-unretired loads": doneUnretired, "target reached": targetHit,
		"stalled run": stalled, "long moving run": longRuns} {
		if n == 0 {
			t.Errorf("no probe covered a %s", name)
		}
	}
}
