package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pacram/internal/scenario"
)

// The fleet contract, proven end to end over real HTTP:
//
//   - tables are byte-identical at 0, 1 and 3 workers, with a worker
//     killed mid-sweep, and with a worker draining (503);
//   - a cell is computed exactly once per cluster under concurrent
//     overlapping submissions (coordinator singleflight + shared store
//     + dispatch);
//   - workers survive coordinator restarts by re-registering on a 404
//     heartbeat, and expire from the ring when heartbeats stop.

// fabricSpec builds the standard small sweep the fabric suite runs:
// 3 swept cells plus a shared baseline. Cell keys are content-
// addressed, so distinct nrh sets give distinct cells regardless of
// the spec name.
func fabricSpec(t *testing.T, name string, nrhs []int) []byte {
	t.Helper()
	raw, err := overlappingSpec(name, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// localBytes runs the spec in-process and returns the expected table
// and CSV bytes every fabric topology must reproduce.
func localBytes(t *testing.T, raw []byte) ([]byte, []byte) {
	t.Helper()
	sp, err := scenario.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := scenario.Run(sp, scenario.RunOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var table, csv bytes.Buffer
	if err := tbl.Fprint(&table); err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return table.Bytes(), csv.Bytes()
}

// newWorker builds a worker daemon whose remote store tier is the
// coordinator (the production wiring: computed cells land
// fleet-visible) and serves it over HTTP.
func newWorker(t *testing.T, name, coordinatorURL string, workers int) (*Server, string) {
	t.Helper()
	srv, err := New(Config{Workers: workers, CacheDir: t.TempDir(),
		StoreURL: coordinatorURL, WorkerName: name})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs.URL
}

// joinAndWait registers a worker with the coordinator and blocks until
// the coordinator lists it ready.
func joinAndWait(t *testing.T, worker *Server, coordClient *Client, coordinatorURL, advertiseURL string) *Membership {
	t.Helper()
	m := worker.JoinFleet(coordinatorURL, advertiseURL, 50*time.Millisecond)
	t.Cleanup(m.Leave)
	waitForWorker(t, coordClient, worker.workerName, workerReady)
	return m
}

func waitForWorker(t *testing.T, c *Client, name, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ws, err := c.Workers()
		if err == nil {
			for _, w := range ws {
				if w.Name == name && w.State == state {
					return
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("worker %s never reached state %s on the coordinator", name, state)
}

// TestFabricByteIdentity is the acceptance sweep over fleet sizes: the
// same spec through a fleetless coordinator, a single worker and three
// workers must produce tables byte-identical to an in-process run, and
// with any workers attached every cell must be attributed to one.
func TestFabricByteIdentity(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("%d-workers", workers), func(t *testing.T) {
			raw := fabricSpec(t, fmt.Sprintf("fabric-%d", workers), []int{256, 512, 1024})
			wantTable, wantCSV := localBytes(t, raw)

			coord, client := newTestServer(t, 2)
			coordURL := "http://" + coordHost(t, client)
			names := map[string]bool{}
			for i := 0; i < workers; i++ {
				name := fmt.Sprintf("w-%d", i)
				names[name] = true
				wsrv, wurl := newWorker(t, name, coordURL, 2)
				joinAndWait(t, wsrv, client, coordURL, wurl)
			}
			_ = coord

			var evMu sync.Mutex
			var events []CellEvent
			st, err := client.Submit(SubmitRequest{Spec: raw})
			if err != nil {
				t.Fatal(err)
			}
			final, err := client.Watch(context.Background(), st.ID, func(ev CellEvent) {
				evMu.Lock()
				events = append(events, ev)
				evMu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			if final.State != StateDone {
				t.Fatalf("job finished %s: %s", final.State, final.Error)
			}
			table, err := client.Table(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			csv, err := client.CSV(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(table, wantTable) {
				t.Errorf("table differs from local run at %d workers:\n--- fleet ---\n%s--- local ---\n%s",
					workers, table, wantTable)
			}
			if !bytes.Equal(csv, wantCSV) {
				t.Errorf("CSV differs from local run at %d workers", workers)
			}

			if workers == 0 {
				if final.Remote != 0 || len(final.Workers) != 0 {
					t.Fatalf("fleetless job reports remote execution: %+v", final)
				}
				for _, ev := range events {
					if ev.Worker != "" {
						t.Fatalf("fleetless cell attributed to worker %q", ev.Worker)
					}
				}
				return
			}
			if final.Remote != final.Cells {
				t.Errorf("%d of %d cells remote; an attached fleet should take every owner-path cell",
					final.Remote, final.Cells)
			}
			attributed := 0
			for w, n := range final.Workers {
				if !names[w] {
					t.Errorf("cells attributed to unknown worker %q", w)
				}
				attributed += n
			}
			if attributed != final.Cells {
				t.Errorf("worker attribution covers %d of %d cells", attributed, final.Cells)
			}
			for _, ev := range events {
				if ev.Worker == "" {
					t.Errorf("cell %s carries no worker on the SSE stream", ev.Key)
				} else if !names[ev.Worker] {
					t.Errorf("cell %s attributed to unknown worker %q", ev.Key, ev.Worker)
				}
				if !ev.Cached && ev.ComputeMicros <= 0 {
					t.Errorf("remote-computed cell %s reports no compute time (dispatch wait misattributed?)", ev.Key)
				}
			}
		})
	}
}

// coordHost extracts host:port from a test client's base URL.
func coordHost(t *testing.T, c *Client) string {
	t.Helper()
	const scheme = "http://"
	if len(c.base) <= len(scheme) || c.base[:len(scheme)] != scheme {
		t.Fatalf("unexpected test base URL %q", c.base)
	}
	return c.base[len(scheme):]
}

// TestFabricWorkerKilledMidSweep kills a worker's connections partway
// through a sweep: the first execute answers, every later one has its
// TCP connection destroyed. The coordinator must warn, evict, compute
// the remaining cells locally, and still return bytes identical to a
// local run.
func TestFabricWorkerKilledMidSweep(t *testing.T) {
	raw := fabricSpec(t, "fabric-kill", []int{128, 384, 768})
	wantTable, _ := localBytes(t, raw)

	_, client := newTestServer(t, 2)
	coordURL := "http://" + coordHost(t, client)

	wsrv, err := New(Config{Workers: 2, CacheDir: t.TempDir(),
		StoreURL: coordURL, WorkerName: "w-doomed"})
	if err != nil {
		t.Fatal(err)
	}
	var executes atomic.Int64
	killer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathFabricExecute && executes.Add(1) > 1 {
			// Simulate the process dying mid-cell: destroy the
			// connection without an HTTP response.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("test server connection cannot be hijacked")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		wsrv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(killer.Close)
	joinAndWait(t, wsrv, client, coordURL, killer.URL)

	final, table, _ := runAndFetch(t, client, SubmitRequest{Spec: raw})
	if !bytes.Equal(table, wantTable) {
		t.Errorf("table differs from local run after worker death:\n--- fleet ---\n%s--- local ---\n%s",
			table, wantTable)
	}
	if executes.Load() < 2 {
		t.Fatalf("worker saw %d executes; the kill path never triggered", executes.Load())
	}
	// At least one cell came back before the kill; the rest fell back
	// locally.
	if final.Remote == 0 {
		t.Error("no cell was executed remotely before the worker died")
	}
	if final.Remote >= final.Cells {
		t.Errorf("all %d cells remote despite the worker dying after 1", final.Cells)
	}
	waitForWorker(t, client, "w-doomed", workerDead)
}

// TestFabricWorkerDrainDeclines proves the drain handshake: a draining
// worker answers 503, which is a silent decline — the coordinator
// computes locally, output stays byte-identical, and the worker is
// listed draining.
func TestFabricWorkerDrainDeclines(t *testing.T) {
	raw := fabricSpec(t, "fabric-drain", []int{192, 320, 896})
	wantTable, _ := localBytes(t, raw)

	_, client := newTestServer(t, 2)
	coordURL := "http://" + coordHost(t, client)
	wsrv, wurl := newWorker(t, "w-draining", coordURL, 2)
	joinAndWait(t, wsrv, client, coordURL, wurl)

	// Drain the idle worker: immediate, and every execute hereafter is
	// answered 503.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := wsrv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	final, table, _ := runAndFetch(t, client, SubmitRequest{Spec: raw})
	if !bytes.Equal(table, wantTable) {
		t.Errorf("table differs from local run with a draining worker")
	}
	if final.Remote != 0 || len(final.Workers) != 0 {
		t.Errorf("draining worker executed cells: %+v", final)
	}
	waitForWorker(t, client, "w-draining", workerDraining)
}

// TestFabricCoordinatorRestart restarts the coordinator behind a fixed
// URL: the worker's next heartbeat gets 404, it re-registers, and the
// new coordinator dispatches to it — fleet membership needs no
// operator action across coordinator restarts.
func TestFabricCoordinatorRestart(t *testing.T) {
	var backend atomic.Value // http.Handler
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backend.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	client := NewClient(proxy.URL)

	coordA, err := New(Config{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	backend.Store(coordA.Handler())

	wsrv, wurl := newWorker(t, "w-persistent", proxy.URL, 2)
	joinAndWait(t, wsrv, client, proxy.URL, wurl)

	// "Restart": a fresh coordinator process takes over the address
	// with an empty worker registry.
	coordB, err := New(Config{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	backend.Store(coordB.Handler())

	// The worker's heartbeat loop (50 ms cadence) hits 404 and
	// re-registers with the new coordinator.
	waitForWorker(t, client, "w-persistent", workerReady)

	raw := fabricSpec(t, "fabric-restart", []int{224, 448, 960})
	wantTable, _ := localBytes(t, raw)
	final, table, _ := runAndFetch(t, client, SubmitRequest{Spec: raw})
	if !bytes.Equal(table, wantTable) {
		t.Errorf("table differs from local run after coordinator restart")
	}
	if final.Workers["w-persistent"] != final.Cells {
		t.Errorf("re-registered worker executed %d of %d cells", final.Workers["w-persistent"], final.Cells)
	}
}

// TestFabricExactlyOnceAcrossFleet is the cluster-wide dedup proof:
// concurrent submissions of two overlapping sweeps through a
// coordinator with two workers must compute every distinct cell key
// exactly once across ALL pools in the cluster — coordinator
// singleflight dedups concurrent asks, dispatch sends each cell to one
// worker, and the shared store covers sequential asks.
func TestFabricExactlyOnceAcrossFleet(t *testing.T) {
	coord, client := newTestServer(t, 2)
	coord.pool.TrackComputeCounts()
	coordURL := "http://" + coordHost(t, client)

	workers := []*Server{}
	for i := 0; i < 2; i++ {
		wsrv, wurl := newWorker(t, fmt.Sprintf("w-once-%d", i), coordURL, 2)
		wsrv.pool.TrackComputeCounts()
		joinAndWait(t, wsrv, client, coordURL, wurl)
		workers = append(workers, wsrv)
	}

	specA := fabricSpec(t, "once-a", []int{256, 512})
	specB := fabricSpec(t, "once-b", []int{512, 1024})
	shared := sharedCellKeys(t, specA, specB)
	if len(shared) != 2 {
		t.Fatalf("test specs share %d cells, want 2", len(shared))
	}

	const perSpec = 3
	var wg sync.WaitGroup
	tables := make([][]byte, 2*perSpec)
	for i := 0; i < perSpec; i++ {
		for s, raw := range [][]byte{specA, specB} {
			wg.Add(1)
			go func(slot int, raw []byte) {
				defer wg.Done()
				_, table, _ := runAndFetch(t, client, SubmitRequest{Spec: raw})
				tables[slot] = table
			}(i*2+s, raw)
		}
	}
	wg.Wait()
	for i := 2; i < len(tables); i += 2 {
		if !bytes.Equal(tables[0], tables[i]) {
			t.Errorf("submission %d of spec a returned different bytes", i/2)
		}
		if !bytes.Equal(tables[1], tables[i+1]) {
			t.Errorf("submission %d of spec b returned different bytes", i/2)
		}
	}

	// Fold every pool's compute counts together: each distinct cell key
	// must have been computed exactly once cluster-wide.
	total := map[string]int{}
	for _, p := range append([]*Server{coord}, workers...) {
		for key, n := range p.pool.ComputeCounts() {
			total[key] += n
		}
	}
	if len(total) == 0 {
		t.Fatal("no pool computed anything")
	}
	for key, n := range total {
		if n != 1 {
			t.Errorf("cell %s computed %d times across the cluster, want exactly 1", key, n)
		}
	}
	for _, key := range shared {
		if total[key] != 1 {
			t.Errorf("shared cell %s computed %d times across the cluster, want exactly 1", key, total[key])
		}
	}
}

// TestFabricWorkerExpires: a worker that stops heartbeating (without
// deregistering) is expired from the registry once its TTL lapses.
func TestFabricWorkerExpires(t *testing.T) {
	srv, err := New(Config{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.fleet.ttl = 150 * time.Millisecond
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	client := NewClient(hs.URL)

	body, _ := json.Marshal(RegisterRequest{Name: "w-silent", URL: "http://192.0.2.1:1", Slots: 2})
	resp, err := http.Post(hs.URL+pathFabricRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register answered %s", resp.Status)
	}
	ws, err := client.Workers()
	if err != nil || len(ws) != 1 {
		t.Fatalf("workers after register: %v, %v", ws, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ws, err = client.Workers()
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) == 0 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("silent worker still registered after TTL: %v", ws)
}
