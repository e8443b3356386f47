package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"testing"
	"time"

	"pacram/internal/runner"
)

// wireFrame is the oracle for the SSE wire: json.Marshal of v in the
// "event: %s\ndata: %s\n\n" framing.
func wireFrame(t testing.TB, event string, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("event: %s\ndata: %s\n\n", event, data)
}

// TestEventsWireUnchanged streams a job with a computed, a cached, a
// coalesced, a remote and a failed cell whose error needs escaping,
// and checks the /events bytes against the json.Marshal framing and
// what the client decodes against the events themselves.
func TestEventsWireUnchanged(t *testing.T) {
	srv, client := newTestServer(t, 1)
	fail := errors.New("cell <7> & \"quoted\"\x01 na\u00efve\u2028")
	cells := []struct {
		ev   runner.Event
		want CellEvent
	}{
		{runner.Event{Key: "fig17@0a1b", WaitNanos: 1500, ComputeNanos: 2_500_000},
			CellEvent{Key: "fig17@0a1b", WaitMicros: 1, ComputeMicros: 2500}},
		{runner.Event{Key: "fig17@0a1c", Cached: true},
			CellEvent{Key: "fig17@0a1c", Cached: true}},
		{runner.Event{Key: "fig17@0a1d", Coalesced: true, WaitNanos: 7_000},
			CellEvent{Key: "fig17@0a1d", Coalesced: true, WaitMicros: 7}},
		{runner.Event{Key: "fig17@0a1e", Worker: "w-1", ComputeNanos: 9_000},
			CellEvent{Key: "fig17@0a1e", Worker: "w-1", ComputeMicros: 9}},
		{runner.Event{Key: "fig17@0a1f", Err: fail},
			CellEvent{Key: "fig17@0a1f", Error: fail.Error()}},
	}
	j := &job{id: "job-wire", scenario: "wire", total: len(cells), changed: make(chan struct{}), state: StateRunning, submitted: time.Now()}
	srv.mu.Lock()
	srv.jobs[j.id] = j
	srv.order = append(srv.order, j.id)
	srv.mu.Unlock()

	var want bytes.Buffer
	var wantEvents []CellEvent
	for i, c := range cells {
		c.ev.Done, c.ev.Total = i+1, len(cells)
		c.want.Done, c.want.Total = i+1, len(cells)
		j.addEvent(c.ev)
		want.WriteString(wireFrame(t, "cell", c.want))
		wantEvents = append(wantEvents, c.want)
	}
	j.mu.Lock()
	j.state, j.finished = StateFailed, time.Now()
	j.broadcastLocked()
	j.mu.Unlock()
	st := j.status()
	if st.Cached != 1 || st.Coalesced != 1 || st.Remote != 1 || st.Done != len(cells) {
		t.Fatalf("status counters %+v", st)
	}
	want.WriteString(wireFrame(t, "done", st))

	resp, err := http.Get(client.base + pathJobs + "/" + j.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("/events bytes differ from the json.Marshal framing:\n got %q\nwant %q", got, want.Bytes())
	}

	var decoded []CellEvent
	final, err := client.Watch(context.Background(), j.id, func(ev CellEvent) { decoded = append(decoded, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(decoded, wantEvents) {
		t.Fatalf("client decoded %+v, want %+v", decoded, wantEvents)
	}
	if final.State != StateFailed || final.Done != len(cells) {
		t.Fatalf("terminal status %+v", final)
	}
	// The plain events take the strict parser; the escaped error falls
	// back to encoding/json.
	for i, ev := range wantEvents {
		data, _ := json.Marshal(ev)
		if _, ok := parseCellEvent(data); ok != (ev.Error == "") {
			t.Errorf("event %d: strict parser accepted=%v for %s", i, ok, data)
		}
	}
}

// FuzzCellFrame checks both halves of the cell frame codec against
// encoding/json: appendCellFrame writes the json.Marshal framing for
// any CellEvent, and for any data line the strict parser accepts,
// json.Unmarshal succeeds with the same CellEvent; a line it rejects
// still decodes through the fallback exactly as json.Unmarshal does.
func FuzzCellFrame(f *testing.F) {
	type seed struct {
		ev   CellEvent
		data string
	}
	for _, s := range []seed{
		{CellEvent{Key: "fig17@9f", Done: 1, Total: 549}, `{"key":"fig17@9f","done":1,"total":549}`},
		{CellEvent{Key: "k", Cached: true, Coalesced: true, Worker: "w", Done: 2, Total: 3, WaitMicros: -4, ComputeMicros: 5},
			`{"key":"k","cached":true,"coalesced":true,"worker":"w","error":"e","done":2,"total":3,"waitMicros":4,"computeMicros":5}`},
		{CellEvent{Key: "a<b>&c", Error: "bad \"x\"\x00\u2028\u00e9\xff"}, `{"key":"a<b","done":0,"total":0}`},
		{CellEvent{Key: "a<b", Worker: "c>d", Error: "e&f"}, `{"key":"k","done":1,"total":1}x`},
		{CellEvent{Key: `q"q`, Worker: `b\s`, Error: "\x1f"}, `{"key":"a\u003cb","done":1,"total":1}`},
		{CellEvent{Done: -9223372036854775808, Total: 9223372036854775807}, `{"key":"","done":-0,"total":00}`},
		{CellEvent{}, `{"key":"k","cached":false,"done":1,"total":1}`},
		{CellEvent{}, `{"key":"k","worker":"","done":1,"total":1,"waitMicros":0}`},
		{CellEvent{}, `{"key":"k","done":1234567890123456789,"total":1} `},
		{CellEvent{}, `{"key":"k","done":1,"total":1,"extra":true}`},
		{CellEvent{}, `{"total":1,"key":"k","done":1}`},
		{CellEvent{}, `{"key":"k","done":1.5,"total":1}`},
		{CellEvent{}, `null`},
		{CellEvent{}, ``},
	} {
		e := s.ev
		f.Add(e.Key, e.Worker, e.Error, e.Cached, e.Coalesced, e.Done, e.Total, e.WaitMicros, e.ComputeMicros, []byte(s.data))
	}
	f.Fuzz(func(t *testing.T, key, worker, errMsg string, cached, coalesced bool, done, total int, wait, compute int64, data []byte) {
		ev := CellEvent{Key: key, Cached: cached, Coalesced: coalesced, Worker: worker, Error: errMsg,
			Done: done, Total: total, WaitMicros: wait, ComputeMicros: compute}
		if got, want := string(appendCellFrame([]byte("prefix"), ev)), "prefix"+wireFrame(t, "cell", ev); got != want {
			t.Fatalf("appendCellFrame(%+v)\n got %q\nwant %q", ev, got, want)
		}
		line, _ := json.Marshal(ev)
		for _, d := range [][]byte{line, data} {
			var want CellEvent
			werr := json.Unmarshal(d, &want)
			if strict, ok := parseCellEvent(d); ok && (werr != nil || strict != want) {
				t.Fatalf("strict parser accepted %q as %+v; json.Unmarshal: %+v, %v", d, strict, want, werr)
			}
			got, err := decodeCellEvent(d)
			if (err == nil) != (werr == nil) || err == nil && got != want {
				t.Fatalf("decodeCellEvent(%q) = %+v, %v; json.Unmarshal: %+v, %v", d, got, err, want, werr)
			}
		}
	})
}
