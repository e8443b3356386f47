package scenario

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"pacram/internal/runner"
	"pacram/internal/sim"
)

// warmFig17 compiles the paper's fig17 at reduced scale and runs it
// once, cold, on a memory-tier store and a shared pool, the way a
// warm pacramd holds them. It returns the plan, the pool, the store
// and the table's bytes.
func warmFig17(tb testing.TB) (*Plan, *runner.Pool[sim.Result], runner.Store, []byte) {
	tb.Helper()
	s, err := ByName("fig17")
	if err != nil {
		tb.Fatal(err)
	}
	// A warm run's cost does not depend on the cells' length, only on
	// their number, so a short cold pass loses nothing.
	s.Sim.Instructions = min(s.Sim.Instructions, 2_000)
	s.Sim.Warmup = min(s.Sim.Warmup, 200)
	plan, err := s.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	store, err := runner.OpenStore("", "", 0)
	if err != nil {
		tb.Fatal(err)
	}
	pool := runner.NewPool[sim.Result](2)
	tbl, err := plan.Run(RunOptions{Pool: pool, Store: store})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		tb.Fatal(err)
	}
	return plan, pool, store, buf.Bytes()
}

// TestPlanRunConcurrentWarm: concurrent runs of one compiled plan
// against a warm store, as pacramd's plan cache serves them, each
// print the cold run's bytes with every cell a store hit, and leave
// the plan's store addresses as Compile built them. Under the race
// detector it also shows that runs only read what Compile built.
func TestPlanRunConcurrentWarm(t *testing.T) {
	plan, pool, store, want := warmFig17(t)
	addrs := make(map[string]string, plan.Jobs())
	for _, c := range plan.Cells() {
		j, _ := plan.Job(c.Key)
		addrs[c.Key] = j.Addr
	}

	const runs = 4
	var wg sync.WaitGroup
	var cached atomic.Int64
	tables := make([][]byte, runs)
	errs := make([]error, runs)
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tbl, err := plan.Run(RunOptions{Pool: pool, Store: store, OnEvent: func(ev runner.Event) {
				if ev.Cached {
					cached.Add(1)
				}
			}})
			if err != nil {
				errs[r] = err
				return
			}
			var buf bytes.Buffer
			errs[r] = tbl.Fprint(&buf)
			tables[r] = buf.Bytes()
		}(r)
	}
	wg.Wait()
	for r := 0; r < runs; r++ {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		if !bytes.Equal(tables[r], want) {
			t.Fatalf("warm run %d printed\n%s\nwant\n%s", r, tables[r], want)
		}
	}
	if got, wantHits := cached.Load(), int64(runs*plan.Jobs()); got != wantHits {
		t.Fatalf("%d store hits over %d warm runs of %d cells, want %d", got, runs, plan.Jobs(), wantHits)
	}
	for _, c := range plan.Cells() {
		if j, _ := plan.Job(c.Key); j.Addr != addrs[c.Key] {
			t.Fatalf("cell %s: address changed from %s to %s by a run", c.Key, addrs[c.Key], j.Addr)
		}
	}
}

// TestPlanAddressesMatchDerived: the store addresses Compile computes
// once per plan are the ones the pool derives from each job key under
// the plan's fingerprint and seed, so a store filled by jobs that
// carry no address serves every cell of the plan, and the disk layout
// does not move.
func TestPlanAddressesMatchDerived(t *testing.T) {
	s, err := ByName("refresh-stress")
	if err != nil {
		t.Fatal(err)
	}
	s.Sim.Instructions = min(s.Sim.Instructions, 2_000)
	s.Sim.Warmup = min(s.Sim.Warmup, 200)
	plan, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	store, err := runner.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var jobs []runner.Job[sim.Result]
	for _, c := range plan.Cells() {
		j, _ := plan.Job(c.Key)
		if j.Addr == "" {
			t.Fatalf("cell %s has no address", c.Key)
		}
		j.Addr = ""
		jobs = append(jobs, j)
	}
	if _, err := runner.Run(runner.Options{Workers: 2, Seed: runSeed, Fingerprint: runFingerprint, Store: store}, jobs); err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	if _, err := plan.Run(RunOptions{Parallel: 2, Store: store, OnEvent: func(ev runner.Event) {
		if !ev.Cached {
			computed.Add(1)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if n := computed.Load(); n != 0 {
		t.Fatalf("%d of %d cells missed the store their derived addresses filled", n, plan.Jobs())
	}
}

// BenchmarkPlanRunWarm measures one warm run of the paper's fig17
// plan (549 cells): every cell a memory-tier hit on a shared pool, so
// the cost is the pool's per-cell bookkeeping, the store lookups and
// table assembly — what pacramd spends on a repeated sweep.
func BenchmarkPlanRunWarm(b *testing.B) {
	plan, pool, store, _ := warmFig17(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := plan.Run(RunOptions{Pool: pool, Store: store}); err != nil {
			b.Fatal(err)
		}
	}
}
