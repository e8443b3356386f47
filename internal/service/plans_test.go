package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pacram/internal/runner"
	"pacram/internal/scenario"
)

// planCacheEntries reports how many spec documents the server's plan
// cache holds.
func planCacheEntries(s *Server) int {
	s.plans.mu.Lock()
	defer s.plans.mu.Unlock()
	return len(s.plans.plans)
}

// localTable runs a spec document locally and renders its table.
func localTable(t *testing.T, doc []byte) []byte {
	t.Helper()
	sp, err := scenario.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := scenario.Run(sp, scenario.RunOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return renderTable(tbl)
}

// TestPlanCacheCompilesOnce: submitting the same inline spec twice
// compiles it once, and submitting a catalog name twice never compiles
// (New did), while every table stays byte-identical to a local run.
func TestPlanCacheCompilesOnce(t *testing.T) {
	srv, client := newTestServer(t, 2)
	raw, err := overlappingSpec("cached", []int{128, 256})
	if err != nil {
		t.Fatal(err)
	}
	want := localTable(t, raw)
	for i := 0; i < 2; i++ {
		if _, table, _ := runAndFetch(t, client, SubmitRequest{Spec: raw}); !bytes.Equal(table, want) {
			t.Fatalf("inline submission %d: table differs from the local run:\n%s\nwant:\n%s", i, table, want)
		}
	}
	if hits, misses := srv.metrics.planHits.Value(), srv.metrics.planMisses.Value(); hits != 1 || misses != 1 {
		t.Fatalf("inline spec twice: %d hits, %d misses, want 1 and 1", hits, misses)
	}
	if n := planCacheEntries(srv); n != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", n)
	}

	const name = "refresh-stress"
	sp, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := scenario.Run(sp, scenario.RunOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantNamed := renderTable(tbl)
	for i := 0; i < 2; i++ {
		if _, table, _ := runAndFetch(t, client, SubmitRequest{Scenario: name}); !bytes.Equal(table, wantNamed) {
			t.Fatalf("%s submission %d: table differs from the local run", name, i)
		}
	}
	if hits, misses := srv.metrics.planHits.Value(), srv.metrics.planMisses.Value(); hits != 3 || misses != 1 {
		t.Fatalf("after the catalog name twice: %d hits, %d misses, want 3 and 1", hits, misses)
	}
	if n := planCacheEntries(srv); n != 1 {
		t.Fatalf("catalog submissions changed the plan cache: %d entries, want 1", n)
	}
}

// TestTracePathIs422: a submitted spec whose trace.path names a
// readable file is a 422 naming the field on validate, on submit and
// on the fabric's execute endpoint, whether the file is a valid trace
// or not. The daemon reads no file for network input, so no answer
// quotes the file, and nothing is cached or queued.
func TestTracePathIs422(t *testing.T) {
	srv, base, _ := newObservedServer(t, nil)
	dir := t.TempDir()
	for name, lines := range map[string][]string{
		"k.trace":  {"# pacram-trace-marker-5c1e9d", "3 0x7ab5c000 R", "0 0x7ab5c040 W"},
		"accounts": {"root:x:0:0:root:/root:/bin/bash"},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		spec := json.RawMessage(fmt.Sprintf(`{
		  "name": "traced",
		  "sim": { "instructions": 2000, "warmup": 200 },
		  "config": { "mitigation": "Graphene", "nrh": 128 },
		  "workloads": [{ "name": "g", "members": [{ "cores": [{ "trace": { "name": "t", "path": %q } }] }] }],
		  "columns": [{ "name": "ipc", "group": "g", "metric": "sumIPC" }]
		}`, path))
		for _, tc := range []struct {
			path string
			req  any
		}{
			{pathValidate, SubmitRequest{Spec: spec}},
			{pathJobs, SubmitRequest{Spec: spec}},
			{pathFabricExecute, ExecuteRequest{Spec: spec, Key: "any"}},
		} {
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(base+tc.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(data), `cores[0].trace.path`) {
				t.Errorf("%s %s: %d %s, want 422 naming cores[0].trace.path", name, tc.path, resp.StatusCode, data)
			}
			for _, line := range lines {
				if strings.Contains(string(data), line) {
					t.Errorf("%s %s: answer quotes the file's line %q", name, tc.path, line)
				}
			}
		}
	}
	if n := planCacheEntries(srv); n != 0 {
		t.Fatalf("a rejected spec left %d plan cache entries", n)
	}
	srv.mu.Lock()
	jobs := len(srv.jobs)
	srv.mu.Unlock()
	if jobs != 0 {
		t.Fatalf("a rejected spec queued %d jobs", jobs)
	}
}

// TestLoopedTraceFileShips: a spec file whose trace core replays only
// the first 100 of a 300,000-record file loads with just those 100
// records inline, compiles to the job keys of the whole file pasted
// inline, and so stays small enough to validate through pacramd, whose
// request bound the whole file would break.
func TestLoopedTraceFileShips(t *testing.T) {
	_, client := newTestServer(t, 1)
	const records, loop = 300_000, 100
	var text strings.Builder
	for i := 0; i < records; i++ {
		fmt.Fprintf(&text, "%d 0x%x R\n", i%8, 0x7ab50000+uint64(i%4096)*64)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "k.trace"), []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := func(trace string) string {
		return `{
		  "name": "looped",
		  "sim": { "instructions": 2000, "warmup": 200 },
		  "workloads": [{ "name": "g", "members": [{ "cores": [{ "trace": ` + trace + ` }] }] }],
		  "columns": [{ "name": "ipc", "group": "g", "metric": "sumIPC" }]
		}`
	}
	specPath := filepath.Join(dir, "looped.json")
	if err := os.WriteFile(specPath, []byte(doc(fmt.Sprintf(`{ "name": "k", "path": "k.trace", "loop": %d }`, loop))), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := scenario.LoadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	inline := loaded.Workloads[0].Members[0].Cores[0].Trace.Inline
	if n := strings.Count(inline, "\n"); n != loop {
		t.Fatalf("LoadFile inlined %d records, want the %d the core replays", n, loop)
	}

	inlineJSON, err := json.Marshal(text.String())
	if err != nil {
		t.Fatal(err)
	}
	fullDoc := doc(fmt.Sprintf(`{ "name": "k", "inline": %s, "loop": %d }`, inlineJSON, loop))
	if len(fullDoc) <= maxRequestBytes {
		t.Fatalf("the whole file inline is %d bytes, under the %d-byte request bound: no test", len(fullDoc), maxRequestBytes)
	}
	full, err := scenario.Parse([]byte(fullDoc))
	if err != nil {
		t.Fatal(err)
	}
	keys := func(s *scenario.Spec) []string {
		t.Helper()
		p, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range p.Cells() {
			out = append(out, c.Key)
		}
		return out
	}
	if got, want := keys(loaded), keys(full); !slices.Equal(got, want) {
		t.Fatalf("looped file compiles to keys\n%q\nthe whole file inline to\n%q", got, want)
	}

	raw, err := json.Marshal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := client.Validate(SubmitRequest{Spec: raw})
	if err != nil {
		t.Fatalf("validating the loaded spec (%d bytes) through the daemon: %v", len(raw), err)
	}
	if vr.Cells != 1 {
		t.Fatalf("daemon validated %d cells, want 1", vr.Cells)
	}
}

// TestPlanCacheFailuresCacheNothing: an unknown name still answers 404
// with scenario.ByName's message and an invalid inline spec 422, on
// both validate and submit, and neither leaves a cache entry.
func TestPlanCacheFailuresCacheNothing(t *testing.T) {
	srv, base, _ := newObservedServer(t, nil)
	_, byName := scenario.ByName("no-such")
	if byName == nil {
		t.Fatal("ByName accepted an unknown name")
	}
	invalid := json.RawMessage(`{"name":"x","sim":{"instructions":1000},"workloads":[{"name":"g","members":[{"mix":"mix00"}]}],"columns":[{"name":"c","group":"g","metric":"nope"}]}`)
	cases := []struct {
		req    SubmitRequest
		status int
		msg    string
	}{
		{SubmitRequest{Scenario: "no-such"}, http.StatusNotFound, byName.Error()},
		{SubmitRequest{Spec: invalid}, http.StatusUnprocessableEntity, "columns[0].metric"},
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{pathValidate, pathJobs} {
			resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var e Error
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("%s: %s", path, data)
			}
			if resp.StatusCode != tc.status || !strings.Contains(e.Error, tc.msg) {
				t.Errorf("%s %s: %d %q, want %d with %q", path, body, resp.StatusCode, e.Error, tc.status, tc.msg)
			}
		}
	}
	if n := planCacheEntries(srv); n != 0 {
		t.Fatalf("failed resolves left %d plan cache entries", n)
	}
}

// TestPlanCacheCellBound: the cache bounds the cells its plans hold,
// not its entries. Overflow starts the cache over, and a plan bigger
// than the whole bound is never cached.
func TestPlanCacheCellBound(t *testing.T) {
	doc := func(name string, nrhs ...int) []byte {
		raw, err := overlappingSpec(name, nrhs)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// Each sweep point is one cell, plus one shared baseline cell.
	a, b, c := doc("a", 64, 128, 256), doc("b", 64, 128, 256), doc("c", 64, 128, 256)
	huge := doc("huge", 64, 96, 128, 160, 192, 224, 256, 288, 320, 352)
	cache := planCache{limit: 10}
	get := func(doc []byte, wantHit bool) {
		t.Helper()
		cp, hit, err := cache.get(doc)
		if err != nil {
			t.Fatal(err)
		}
		if hit != wantHit {
			t.Fatalf("%s: hit=%v, want %v", cp.spec.Name, hit, wantHit)
		}
		if cache.cells > cache.limit {
			t.Fatalf("cache holds %d cells, bound %d", cache.cells, cache.limit)
		}
	}
	get(a, false)
	get(b, false)
	if cache.cells != 8 || len(cache.plans) != 2 {
		t.Fatalf("after a and b: %d cells in %d plans, want 8 in 2", cache.cells, len(cache.plans))
	}
	get(a, true)
	get(c, false) // 12 cells would exceed the bound: start over with c
	if cache.cells != 4 || len(cache.plans) != 1 {
		t.Fatalf("after overflow: %d cells in %d plans, want 4 in 1", cache.cells, len(cache.plans))
	}
	get(c, true)
	get(a, false)
	get(huge, false) // 11 cells: bigger than the bound, never cached
	get(huge, false)
	if cache.cells != 8 || len(cache.plans) != 2 {
		t.Fatalf("an oversized plan disturbed the cache: %d cells in %d plans", cache.cells, len(cache.plans))
	}
}

// TestEventsStreamFlushesEachBatch: the SSE handler flushes once per
// wake-up, so each event of a running job reaches the subscriber
// before the job finishes. The test drives a registered job's events
// itself and waits for each one to arrive before adding the next.
func TestEventsStreamFlushesEachBatch(t *testing.T) {
	srv, client := newTestServer(t, 1)
	const total = 3
	j := &job{id: "job-cold", scenario: "cold", total: total, changed: make(chan struct{}), state: StateRunning, submitted: time.Now()}
	srv.mu.Lock()
	srv.jobs[j.id] = j
	srv.order = append(srv.order, j.id)
	srv.mu.Unlock()

	finish := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.state, j.finished = StateDone, time.Now()
		j.broadcastLocked()
	}
	// A failing test still ends the stream, so the server can close.
	t.Cleanup(finish)

	got := make(chan CellEvent, total)
	finished := make(chan *JobStatus, 1)
	go func() {
		st, err := client.Watch(context.Background(), j.id, func(ev CellEvent) { got <- ev })
		if err != nil {
			t.Error(err)
		}
		finished <- st
	}()
	for i := 1; i <= total; i++ {
		key := fmt.Sprintf("cell-%d", i)
		j.addEvent(runner.Event{Key: key, Done: i, Total: total})
		select {
		case ev := <-got:
			if ev.Key != key || ev.Done != i {
				t.Fatalf("event %d arrived as %+v", i, ev)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("event %d was not delivered while the job was running", i)
		}
	}
	finish()
	select {
	case st := <-finished:
		if st == nil || st.State != StateDone || st.Done != total {
			t.Fatalf("terminal status %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("done event was not delivered")
	}
}
