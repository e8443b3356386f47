package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pacram/internal/runner"
	"pacram/internal/trace"
)

// span is one timed interval recorded by the benchmark around a call
// into one layer of the program. Spans of one run share the recorder's
// trace ID; Parent is 0 for roots.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// recorder keeps a traced run's spans in memory; they are written out
// once the run ends. A nil recorder records nothing, so untraced runs
// pay nothing for the hooks.
type recorder struct {
	traceID string
	t0      time.Time
	nextID  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder(traceID string) *recorder {
	return &recorder{traceID: traceID, t0: time.Now()}
}

// add records one finished span and returns its ID.
func (r *recorder) add(parent int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
	return id
}

// reserve hands out an ID for a span whose end is not known yet, so
// children can name it as their parent before it is recorded.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// addAs records a span under an ID obtained from reserve.
func (r *recorder) addAs(id, parent int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
}

// writeJSONL writes the spans, one JSON object per line, to path.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		line := struct {
			Trace string `json:"trace"`
			span
		}{r.traceID, s}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its children cover (overlapping children count once).
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// printAttribution writes the traced run's self time per layer, largest
// first, and the tracing overhead against the untraced run.
func printAttribution(w io.Writer, workload string, r *recorder, overhead float64) {
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "attribution %s: self time per layer (traced run)\n", workload)
	for _, n := range names {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[n]) / float64(total)
		}
		fmt.Fprintf(w, "  %-22s %12.3f ms  %5.1f%%\n", n, float64(self[n])/1e6, share)
	}
	fmt.Fprintf(w, "  tracing overhead vs untraced run: %+.2f%%\n", 100*overhead)
}

// timedStore wraps the runner.Store a sweep is given and times every
// Get and Put. It only observes: the bytes pass through untouched, and
// its operation counts are reconciled against the wrapped stack's own
// counters after each use.
type timedStore struct {
	inner  runner.Store
	rec    *recorder
	parent int64

	mu       sync.Mutex
	getNanos []int64
	putNanos []int64
	hits     int
	putBytes int64
	puts     map[string][]byte // envelope bytes per hash, when capturing
}

func newTimedStore(inner runner.Store, rec *recorder, parent int64, capture bool) *timedStore {
	s := &timedStore{inner: inner, rec: rec, parent: parent}
	if capture {
		s.puts = make(map[string][]byte)
	}
	return s
}

func (s *timedStore) Get(hash string) ([]byte, bool, error) {
	start := time.Now()
	data, ok, err := s.inner.Get(hash)
	end := time.Now()
	s.rec.add(s.parent, "store.get", start, end)
	s.mu.Lock()
	s.getNanos = append(s.getNanos, int64(end.Sub(start)))
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return data, ok, err
}

func (s *timedStore) Put(hash string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(hash, data)
	end := time.Now()
	s.rec.add(s.parent, "store.put", start, end)
	s.mu.Lock()
	s.putNanos = append(s.putNanos, int64(end.Sub(start)))
	s.putBytes += int64(len(data))
	if s.puts != nil {
		s.puts[hash] = data
	}
	s.mu.Unlock()
	return err
}

func (s *timedStore) Stats() runner.TierStats { return s.inner.Stats() }

// reconcile checks the decorator's counts against the wrapped stack's
// aggregate counters (the last PerTier entry), taken as deltas from a
// snapshot before the decorator was used.
func (s *timedStore) reconcile(stack *runner.Tiered, before runner.TierStats) error {
	tiers := stack.PerTier()
	after := tiers[len(tiers)-1]
	s.mu.Lock()
	defer s.mu.Unlock()
	gets := (after.Hits + after.Misses + after.Errors) - (before.Hits + before.Misses + before.Errors)
	hits := after.Hits - before.Hits
	puts := after.Puts - before.Puts
	if gets != int64(len(s.getNanos)) || hits != int64(s.hits) || puts != int64(len(s.putNanos)) {
		return fmt.Errorf("store decorator saw %d gets (%d hits), %d puts; the tiered stack counted %d gets (%d hits), %d puts",
			len(s.getNanos), s.hits, len(s.putNanos), gets, hits, puts)
	}
	return nil
}

// cellResults decodes the captured envelopes into raw result JSON per
// job key.
func (s *timedStore) cellResults() (map[string]json.RawMessage, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]json.RawMessage, len(s.puts))
	for hash, data := range s.puts {
		var env struct {
			Key    string          `json:"key"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Key == "" {
			return nil, fmt.Errorf("store envelope %s: undecodable (%v)", hash, err)
		}
		out[env.Key] = env.Result
	}
	return out, nil
}

// setMetrics reports the store layer's figures.
func (s *timedStore) setMetrics(out *outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out.set("store.put_ops", float64(len(s.putNanos)))
	out.set("store.put_p50_us", quantile(int64s(s.putNanos), 0.5)/1e3)
	out.set("store.put_bytes", float64(s.putBytes))
	out.set("store.get_ops", float64(len(s.getNanos)))
	if len(s.getNanos) > 0 {
		out.set("store.get_hit_ratio", float64(s.hits)/float64(len(s.getNanos)))
	}
	out.set("store.get_p50_us", quantile(int64s(s.getNanos), 0.5)/1e3)
}

func int64s(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// countingGen wraps a trace generator, counting and timing Next calls.
// The records pass through unchanged.
type countingGen struct {
	trace.Generator
	calls *atomic.Int64
	nanos *atomic.Int64
}

func (g countingGen) Next() trace.Record {
	start := time.Now()
	r := g.Generator.Next()
	g.nanos.Add(int64(time.Since(start)))
	g.calls.Add(1)
	return r
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation; 0 for
// an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile picks the percentile a latency tail is reported at: p99
// when at least ten samples lie beyond it, otherwise the highest
// percentile that still has ten samples beyond it, or the maximum when
// there are too few samples for any. The label names what was picked.
func tailQuantile(n int) (q float64, label string) {
	switch {
	case n >= 1000:
		return 0.99, "p99"
	case n > 10:
		q = 1 - 10/float64(n)
		return q, fmt.Sprintf("p%.1f", 100*q)
	}
	return 1, "max"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// traceName is a run's trace ID and span-file stem.
func traceName(workload string, seed uint64) string {
	return fmt.Sprintf("%s-seed%d", workload, seed)
}
