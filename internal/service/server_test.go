package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pacram/internal/scenario"
)

// newTestServer builds a server on a temp store plus an HTTP front
// end, returning the server (for pool introspection) and a client.
func newTestServer(t *testing.T, workers int) (*Server, *Client) {
	t.Helper()
	srv, err := New(Config{Workers: workers, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, NewClient(hs.URL)
}

// shrink rescales a spec the way the engine-parity suite does:
// byte-identity between local and remote runs is a structural
// property, so a shorter run loses no coverage, only wall clock.
func shrink(s *scenario.Spec) {
	s.Sim.Instructions = min(s.Sim.Instructions, 2_000)
	s.Sim.Warmup = min(s.Sim.Warmup, 200)
}

// runAndFetch submits a request, waits for the terminal state, and
// returns the final status plus table and CSV bytes.
func runAndFetch(t *testing.T, c *Client, req SubmitRequest) (*JobStatus, []byte, []byte) {
	t.Helper()
	st, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job %s finished %s: %s", st.ID, final.State, final.Error)
	}
	table, err := c.Table(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := c.CSV(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return final, table, csv
}

// TestRemoteMatchesLocalCatalog is the acceptance check: for every
// built-in catalog entry, the table and CSV a remote submission
// returns are byte-identical to a local scenario.Run at a different
// worker count. Specs are shrunk for wall clock and submitted inline,
// which also exercises the wire (marshal → parse) round trip end to
// end.
func TestRemoteMatchesLocalCatalog(t *testing.T) {
	specs, err := scenario.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, 4)
	for _, sp := range specs {
		if testing.Short() && sp.Name != "refresh-stress" && sp.Name != "multi-tenant" {
			continue
		}
		t.Run(sp.Name, func(t *testing.T) {
			shrink(sp)
			local, err := scenario.Run(sp, scenario.RunOptions{Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			var wantTable, wantCSV bytes.Buffer
			if err := local.Fprint(&wantTable); err != nil {
				t.Fatal(err)
			}
			if err := local.WriteCSV(&wantCSV); err != nil {
				t.Fatal(err)
			}

			raw, err := json.Marshal(sp)
			if err != nil {
				t.Fatal(err)
			}
			final, table, csv := runAndFetch(t, client, SubmitRequest{Spec: raw})
			if !bytes.Equal(table, wantTable.Bytes()) {
				t.Errorf("remote table differs from local run:\n--- remote ---\n%s--- local ---\n%s", table, wantTable.Bytes())
			}
			if !bytes.Equal(csv, wantCSV.Bytes()) {
				t.Errorf("remote CSV differs from local run")
			}
			if final.TableID != local.ID {
				t.Errorf("table ID %q, want %q", final.TableID, local.ID)
			}
			if final.Done != final.Cells {
				t.Errorf("final status reports %d/%d cells", final.Done, final.Cells)
			}
		})
	}
}

// overlappingSpec builds a small sweep; lo/hi select the NRH axis so
// two specs can share some cells (the swept 512 point and the
// baseline) but not others.
func overlappingSpec(name string, nrhs []int) ([]byte, error) {
	vals := make([]string, len(nrhs))
	for i, n := range nrhs {
		vals[i] = fmt.Sprintf("%d", n)
	}
	spec := fmt.Sprintf(`{
	  "name": %q,
	  "sim": { "instructions": 2000, "warmup": 200 },
	  "config": { "mitigation": "Graphene" },
	  "baseline": {},
	  "workloads": [
	    { "name": "g", "members": [
	      { "cores": [{ "synthetic": { "name": "s", "pattern": "random", "bubbleMean": 30, "footprintMB": 4 } }] }
	    ] }
	  ],
	  "sweep": { "axes": [{ "param": "nrh", "values": [%s] }] },
	  "columns": [
	    { "name": "NRH", "axis": "nrh" },
	    { "name": "normWS", "group": "g", "metric": "normWS" }
	  ]
	}`, name, strings.Join(vals, ", "))
	return []byte(spec), nil
}

// TestConcurrentSubmissionsCoalesce is the cross-job dedup proof: N
// concurrent submissions of two overlapping sweeps must simulate each
// shared cell key exactly once between them — singleflight while in
// flight, the shared store afterwards — and submissions of the same
// spec must receive byte-identical tables.
func TestConcurrentSubmissionsCoalesce(t *testing.T) {
	srv, client := newTestServer(t, 4)
	srv.pool.TrackComputeCounts()

	specA, err := overlappingSpec("overlap-a", []int{256, 512})
	if err != nil {
		t.Fatal(err)
	}
	specB, err := overlappingSpec("overlap-b", []int{512, 1024})
	if err != nil {
		t.Fatal(err)
	}
	// The two specs share the nrh=512 cell and the baseline cell:
	// content-addressed keys make that overlap structural, not
	// name-based.
	shared := sharedCellKeys(t, specA, specB)
	if len(shared) != 2 {
		t.Fatalf("test specs share %d cells, want 2 (the nrh=512 cell and the baseline)", len(shared))
	}

	const perSpec = 4
	type outcome struct {
		spec  string
		table []byte
	}
	outs := make(chan outcome, 2*perSpec)
	var wg sync.WaitGroup
	for i := 0; i < perSpec; i++ {
		for name, raw := range map[string][]byte{"a": specA, "b": specB} {
			wg.Add(1)
			go func(name string, raw []byte) {
				defer wg.Done()
				_, table, _ := runAndFetch(t, client, SubmitRequest{Spec: raw})
				outs <- outcome{name, table}
			}(name, raw)
		}
	}
	wg.Wait()
	close(outs)

	tables := map[string][][]byte{}
	for o := range outs {
		tables[o.spec] = append(tables[o.spec], o.table)
	}
	for name, ts := range tables {
		for i := 1; i < len(ts); i++ {
			if !bytes.Equal(ts[0], ts[i]) {
				t.Errorf("spec %s: submission %d returned different table bytes", name, i)
			}
		}
	}

	counts := srv.pool.ComputeCounts()
	if len(counts) == 0 {
		t.Fatal("pool computed nothing")
	}
	for key, n := range counts {
		if n != 1 {
			t.Errorf("cell %s simulated %d times, want exactly 1", key, n)
		}
	}
	for _, key := range shared {
		if counts[key] != 1 {
			t.Errorf("shared cell %s simulated %d times, want exactly 1", key, counts[key])
		}
	}
}

// sharedCellKeys compiles both specs locally and returns the cell
// keys they have in common.
func sharedCellKeys(t *testing.T, rawA, rawB []byte) []string {
	t.Helper()
	keys := func(raw []byte) map[string]bool {
		sp, err := scenario.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool)
		for _, c := range p.Cells() {
			out[c.Key] = true
		}
		return out
	}
	a, b := keys(rawA), keys(rawB)
	var shared []string
	for k := range a {
		if b[k] {
			shared = append(shared, k)
		}
	}
	return shared
}

// TestValidateEndpoint covers the validation surface: catalog names,
// inline specs, precise field paths on invalid specs, and malformed
// requests.
func TestValidateEndpoint(t *testing.T) {
	_, client := newTestServer(t, 2)

	vr, err := client.Validate(SubmitRequest{Scenario: "refresh-stress"})
	if err != nil {
		t.Fatal(err)
	}
	if vr.Name != "refresh-stress" || vr.Cells == 0 || vr.Rows == 0 {
		t.Fatalf("unexpected validation response %+v", vr)
	}

	if _, err := client.Validate(SubmitRequest{Scenario: "no-such"}); err == nil ||
		!strings.Contains(err.Error(), "unknown built-in scenario") {
		t.Fatalf("unknown scenario: got %v", err)
	}

	bad := []byte(`{"name":"x","sim":{"instructions":1000},"workloads":[{"name":"g","members":[{"mix":"mix00"}]}],"columns":[{"name":"c","group":"g","metric":"nope"}]}`)
	_, err = client.Validate(SubmitRequest{Spec: bad})
	if err == nil || !strings.Contains(err.Error(), `columns[0].metric`) {
		t.Fatalf("invalid spec: got %v, want a field-path error", err)
	}

	if _, err := client.Validate(SubmitRequest{}); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := client.Validate(SubmitRequest{Scenario: "refresh-stress", Spec: bad}); err == nil {
		t.Fatal("ambiguous request accepted")
	}
}

// TestOversizedSweepIs422: a spec of about 1 KB whose dozen 4-value
// axes multiply to 4^12 sweep points is rejected from the axis lengths
// with 422 and the product named, for validation and submission alike,
// before any point is built.
func TestOversizedSweepIs422(t *testing.T) {
	srv, err := New(Config{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	axes := []string{
		`{"param":"mitigation","values":["PARA","RFM","PRAC","Hydra"]}`,
		`{"param":"nrh","values":[64,128,256,512]}`,
		`{"param":"instructions","values":[1000,2000,3000,4000]}`,
		`{"param":"warmup","values":[0,100,200,300]}`,
		`{"param":"seed","values":[1,2,3,4]}`,
		`{"param":"memory.channels","values":[1,2,4,8]}`,
		`{"param":"memory.ranks","values":[1,2,4,8]}`,
		`{"param":"memory.rows","values":[1024,2048,4096,8192]}`,
		`{"param":"memory.blastRadius","values":[1,2,3,4]}`,
		`{"param":"memory.trfcScale","values":[1,1.45,2.1,3.05]}`,
		`{"param":"memory.cpuFreqGHz","values":[2,3,4,5]}`,
		`{"param":"periodicFactor","values":[1,0.81,0.64,0.45]}`,
	}
	spec := `{"name":"oversized","sim":{"instructions":1000},` +
		`"workloads":[{"name":"g","members":[{"cores":[{"workload":"429.mcf"}]}]}],` +
		`"sweep":{"axes":[` + strings.Join(axes, ",") + `]},` +
		`"columns":[{"name":"ipc","group":"g","metric":"sumIPC"}]}`
	body, err := json.Marshal(SubmitRequest{Spec: json.RawMessage(spec)})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{pathValidate, pathJobs} {
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422: %s", path, resp.StatusCode, msg)
		}
		if !strings.Contains(string(msg), "4 × 4 × 4 × 4 × 4 × 4 × 4 × 4 × 4 × 4 × 4 × 4 points") {
			t.Errorf("%s: error %s does not name the product", path, msg)
		}
	}
}

// TestOversizedCellIs422: one cell with a million channels, or a
// 10^15-instruction budget, would take the daemon down (out of memory)
// or hold a worker for good; both are rejected with 422, naming the
// product, for validation and submission alike, and nothing runs.
func TestOversizedCellIs422(t *testing.T) {
	_, client := newTestServer(t, 1)
	for _, c := range []struct{ patch, product string }{
		{`"sim":{"instructions":1000},"memory":{"channels":1048576}`, "1048576 channels × 2 ranks × 8 bank groups × 2 banks"},
		{`"sim":{"instructions":1000000000000000}`, "1 cores × (1000000000000000 instructions + 0 warmup)"},
	} {
		spec := `{"name":"probe",` + c.patch + `,` +
			`"workloads":[{"name":"g","members":[{"cores":[{"workload":"429.mcf"}]}]}],` +
			`"columns":[{"name":"ipc","group":"g","metric":"sumIPC"}]}`
		body, err := json.Marshal(SubmitRequest{Spec: json.RawMessage(spec)})
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{pathValidate, pathJobs} {
			resp, err := http.Post(client.base+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s: status %d, want 422: %s", path, resp.StatusCode, msg)
			}
			if !strings.Contains(string(msg), c.product+" is over the per-cell bound") {
				t.Errorf("%s: error %s does not name the product %q", path, msg, c.product)
			}
		}
	}
	if jobs, err := client.Jobs(); err != nil || len(jobs) != 0 {
		t.Fatalf("rejected specs left jobs %+v (%v)", jobs, err)
	}
}

// TestEventsStreamIsDense follows a job over SSE and checks the
// stream: one event per cell, dense Done counters, then the terminal
// status.
func TestEventsStreamIsDense(t *testing.T) {
	_, client := newTestServer(t, 2)
	raw, err := overlappingSpec("sse", []int{128, 256})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Submit(SubmitRequest{Spec: raw})
	if err != nil {
		t.Fatal(err)
	}
	var events []CellEvent
	final, err := client.Watch(context.Background(), st.ID, func(ev CellEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if len(events) != final.Cells {
		t.Fatalf("streamed %d events for %d cells", len(events), final.Cells)
	}
	seen := make(map[int]bool)
	for _, ev := range events {
		if ev.Total != final.Cells || ev.Done < 1 || ev.Done > ev.Total || seen[ev.Done] {
			t.Fatalf("bad event %+v", ev)
		}
		seen[ev.Done] = true
		if ev.Key == "" || ev.Error != "" {
			t.Fatalf("unexpected event %+v", ev)
		}
	}

	// A late subscriber replays the full history identically.
	var replay []CellEvent
	if _, err := client.Watch(context.Background(), st.ID, func(ev CellEvent) {
		replay = append(replay, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(events) {
		t.Fatalf("late subscriber replayed %d events, want %d", len(replay), len(events))
	}
}

// TestFailedJobLifecycle drives a job that compiles but fails at run
// time (a one-cycle budget stalls every core) through submission,
// terminal state and artifact fetching.
func TestFailedJobLifecycle(t *testing.T) {
	_, client := newTestServer(t, 2)
	raw := []byte(`{
	  "name": "doomed",
	  "sim": { "instructions": 100000, "maxCycles": 1 },
	  "workloads": [{ "name": "g", "members": [{ "mix": "mix00" }] }],
	  "columns": [{ "name": "ipc", "group": "g", "metric": "sumIPC" }]
	}`)
	st, err := client.Submit(SubmitRequest{Spec: raw})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Watch(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("got %+v, want a failed state with an error", final)
	}
	if _, err := client.Table(st.ID); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("table fetch on failed job: got %v", err)
	}
	if _, err := client.Table("job-999"); err == nil || !strings.Contains(err.Error(), "no job") {
		t.Fatalf("table fetch on unknown job: got %v", err)
	}
}

// TestMetricsAndCatalogMatchLocal pins the remote reference surfaces
// to their local sources byte for byte.
func TestMetricsAndCatalogMatchLocal(t *testing.T) {
	_, client := newTestServer(t, 2)
	docs, err := client.MetricDocs()
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.MetricDocs()
	if len(docs) != len(want) {
		t.Fatalf("got %d metric lines, want %d", len(docs), len(want))
	}
	for i := range docs {
		if docs[i] != want[i] {
			t.Fatalf("metric line %d: %q != %q", i, docs[i], want[i])
		}
	}

	entries, err := client.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := scenario.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(specs) {
		t.Fatalf("catalog has %d entries, want %d", len(entries), len(specs))
	}
	for i, e := range entries {
		if e.Name != specs[i].Name || e.Cells == 0 {
			t.Fatalf("entry %d: %+v does not match %q", i, e, specs[i].Name)
		}
	}
}

// TestDrainRejectsNewSubmissions checks the graceful-drain contract:
// draining answers 503 to new submissions while running jobs finish
// and stay fetchable.
func TestDrainRejectsNewSubmissions(t *testing.T) {
	srv, client := newTestServer(t, 2)
	raw, err := overlappingSpec("drainee", []int{64})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Submit(SubmitRequest{Spec: raw})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(SubmitRequest{Spec: raw}); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("submission during drain: got %v, want a draining rejection", err)
	}
	// The accepted job ran to completion and its artifacts survive.
	final, err := client.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("accepted job finished %s: %s", final.State, final.Error)
	}
	if _, err := client.Table(st.ID); err != nil {
		t.Fatal(err)
	}
	if err := client.Health(); err != nil {
		t.Fatalf("health during drain: %v", err)
	}
}

// TestJobRetentionEvictsOldestFinished bounds the registry: beyond
// the retention cap, the oldest finished jobs (history and artifacts
// included) are evicted on new submissions while newer ones stay
// fetchable.
func TestJobRetentionEvictsOldestFinished(t *testing.T) {
	srv, err := New(Config{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.retain = 2
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	client := NewClient(hs.URL)

	raw, err := overlappingSpec("retained", []int{64})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := client.Submit(SubmitRequest{Spec: raw})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Watch(context.Background(), st.ID, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Jobs finish before the next submission, so the two oldest have
	// been evicted by the third and fourth submissions.
	for _, id := range ids[:2] {
		if _, err := client.Status(id); err == nil || !strings.Contains(err.Error(), "no job") {
			t.Fatalf("evicted job %s still served: %v", id, err)
		}
	}
	for _, id := range ids[2:] {
		if _, err := client.Table(id); err != nil {
			t.Fatalf("retained job %s: %v", id, err)
		}
	}
	jobs, err := client.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != ids[2] || jobs[1].ID != ids[3] {
		t.Fatalf("listing after eviction: %+v", jobs)
	}
}

// TestEvictionStopsAtExcess: eviction skips running jobs and stops
// looking once it has dropped enough finished ones, so it never takes
// the lock of a job it leaves alone. The newest job's lock is held
// throughout; touching it would block eviction.
func TestEvictionStopsAtExcess(t *testing.T) {
	srv := &Server{jobs: make(map[string]*job), retain: 2}
	for i, state := range []string{StateDone, StateRunning, StateFailed, StateDone} {
		id := fmt.Sprintf("job-%d", i)
		srv.jobs[id] = &job{id: id, state: state}
		srv.order = append(srv.order, id)
	}
	newest := srv.jobs["job-3"]
	newest.mu.Lock()
	evicted := make(chan struct{})
	go func() {
		srv.evictLocked()
		close(evicted)
	}()
	select {
	case <-evicted:
	case <-time.After(10 * time.Second):
		newest.mu.Unlock()
		<-evicted
		t.Fatal("eviction locked a job after it had evicted enough")
	}
	newest.mu.Unlock()
	if want := []string{"job-1", "job-3"}; !slices.Equal(srv.order, want) || len(srv.jobs) != len(want) {
		t.Fatalf("after eviction: order %v with %d jobs, want %v", srv.order, len(srv.jobs), want)
	}
}

// TestSubmitStatusShape sanity-checks the submit response fields the
// CLI relies on.
func TestSubmitStatusShape(t *testing.T) {
	_, client := newTestServer(t, 2)
	st, err := client.Submit(SubmitRequest{Scenario: "multi-tenant"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Scenario != "multi-tenant" || st.State != StateRunning || st.Cells == 0 {
		t.Fatalf("unexpected submit response %+v", st)
	}
	final, err := client.Watch(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.FinishedAt == "" || final.TableID == "" {
		t.Fatalf("unexpected final status %+v", final)
	}
	jobs, err := client.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("job listing %+v", jobs)
	}
}
