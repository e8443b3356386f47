// Package storetest is the backend-agnostic conformance suite for
// runner.Store implementations: one exported harness that pins the
// semantics every backend must share — raw byte round-trips, miss
// semantics, envelope validation above the backend (key, fingerprint
// and therefore build-hash invalidation), repeat and replaced hits,
// corrupt-entry degradation and concurrency safety — plus an eviction harness for size-bounded
// backends and a fault-injecting wrapper for degradation tests.
//
// A new backend passes by construction: implement runner.Store, add a
// Factory to the instantiation table in the runner package's tests,
// and every contract the pool and the wire protocol rely on is checked
// against it, including under the race detector.
package storetest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pacram/internal/runner"
)

// Factory builds a fresh, empty store for one (sub)test.
type Factory func(t *testing.T) runner.Store

// envelope builds valid store-entry bytes by hand: the wire protocol
// (StoreHandler) rejects PUT bodies that do not decode as an entry
// envelope, so conformance tests must speak it too.
func envelope(key, fingerprint string, result any) []byte {
	raw, err := json.Marshal(result)
	if err != nil {
		panic(err)
	}
	data, err := json.Marshal(map[string]any{
		"key":         key,
		"fingerprint": fingerprint,
		"result":      json.RawMessage(raw),
	})
	if err != nil {
		panic(err)
	}
	return data
}

// testHash returns a distinct valid store hash (lowercase hex, the
// shape hashCell emits) per index.
func testHash(i int) string { return fmt.Sprintf("%040x", i+1) }

// Run exercises one backend against the full Store contract.
func Run(t *testing.T, mk Factory) {
	t.Run("RawRoundTrip", func(t *testing.T) {
		s := mk(t)
		h := testHash(0)
		want := envelope("cell/a", "fp", 42)
		if err := s.Put(h, want); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, ok, err := s.Get(h)
		if err != nil || !ok {
			t.Fatalf("Get = ok=%v err=%v, want a hit", ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get returned different bytes:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("MissUnknownHash", func(t *testing.T) {
		s := mk(t)
		data, ok, err := s.Get(testHash(0))
		if err != nil {
			t.Fatalf("miss must be (nil,false,nil), got err %v", err)
		}
		if ok || data != nil {
			t.Fatalf("miss must be (nil,false,nil), got ok=%v data=%q", ok, data)
		}
	})

	t.Run("Overwrite", func(t *testing.T) {
		s := mk(t)
		h := testHash(0)
		if err := s.Put(h, envelope("cell/a", "fp", 1)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want := envelope("cell/a", "fp", 2)
		if err := s.Put(h, want); err != nil {
			t.Fatalf("second Put: %v", err)
		}
		got, ok, err := s.Get(h)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get after overwrite = %q ok=%v err=%v, want the second entry", got, ok, err)
		}
	})

	t.Run("CellRoundTrip", func(t *testing.T) {
		s := mk(t)
		h := testHash(0)
		if err := runner.PutCell(s, h, "fp:v1", "cell/a", 1234); err != nil {
			t.Fatalf("PutCell: %v", err)
		}
		var out int
		hit, err := runner.GetCell(s, h, "fp:v1", "cell/a", &out)
		if err != nil || !hit {
			t.Fatalf("GetCell = hit=%v err=%v, want a hit", hit, err)
		}
		if out != 1234 {
			t.Fatalf("GetCell loaded %d, want 1234", out)
		}
	})

	// A backend may keep decoded values (the memory tier does), so
	// repeat hits must serve the same result as the first.
	t.Run("RepeatHitsEqual", func(t *testing.T) {
		s := mk(t)
		h := testHash(0)
		want := map[string][]float64{"ipc": {0.5, 1.25}}
		if err := runner.PutCell(s, h, "fp:v1", "cell/a", want); err != nil {
			t.Fatalf("PutCell: %v", err)
		}
		for i := 0; i < 3; i++ {
			var out map[string][]float64
			hit, err := runner.GetCell(s, h, "fp:v1", "cell/a", &out)
			if err != nil || !hit || !reflect.DeepEqual(out, want) {
				t.Fatalf("hit %d = %v (hit=%v err=%v), want %v", i, out, hit, err, want)
			}
		}
	})

	// Replacing an entry must replace what GetCell serves, including
	// after a hit on the old entry.
	t.Run("ReplacedEntryDecodedAgain", func(t *testing.T) {
		s := mk(t)
		h := testHash(0)
		for _, want := range []int{1, 2} {
			if err := runner.PutCell(s, h, "fp:v1", "cell/a", want); err != nil {
				t.Fatalf("PutCell: %v", err)
			}
			var out int
			hit, err := runner.GetCell(s, h, "fp:v1", "cell/a", &out)
			if err != nil || !hit || out != want {
				t.Fatalf("GetCell after Put(%d) = %d (hit=%v err=%v)", want, out, hit, err)
			}
		}
	})

	// A changed fingerprint — which is how a changed model manifests,
	// since the model identity is folded into the stored fingerprint —
	// must be a silent miss, never an error and never a wrong result.
	t.Run("FingerprintInvalidates", func(t *testing.T) {
		s := mk(t)
		h := testHash(0)
		if err := runner.PutCell(s, h, "fp:v1", "cell/a", 1); err != nil {
			t.Fatalf("PutCell: %v", err)
		}
		var out int
		hit, err := runner.GetCell(s, h, "fp:v2", "cell/a", &out)
		if err != nil || hit {
			t.Fatalf("GetCell under a different fingerprint = hit=%v err=%v, want a silent miss", hit, err)
		}
	})

	t.Run("KeyMismatchMisses", func(t *testing.T) {
		s := mk(t)
		h := testHash(0)
		if err := runner.PutCell(s, h, "fp:v1", "cell/a", 1); err != nil {
			t.Fatalf("PutCell: %v", err)
		}
		var out int
		hit, err := runner.GetCell(s, h, "fp:v1", "cell/b", &out)
		if err != nil || hit {
			t.Fatalf("GetCell under a different key = hit=%v err=%v, want a silent miss", hit, err)
		}
	})

	// A backend may reject garbage at Put time (the wire protocol
	// does); one that accepts it must surface an error naming the cell
	// at load time — never a hit, never a silent miss of a real entry.
	t.Run("CorruptEntryDegrades", func(t *testing.T) {
		s := mk(t)
		h := testHash(0)
		if err := s.Put(h, []byte("not json{{")); err != nil {
			return // rejected up front: equally safe
		}
		var out int
		hit, err := runner.GetCell(s, h, "fp:v1", "cell/a", &out)
		if hit {
			t.Fatal("GetCell reported a hit on corrupt bytes")
		}
		if err == nil {
			t.Fatal("GetCell returned no error on corrupt bytes")
		}
		if !strings.Contains(err.Error(), "cell/a") {
			t.Fatalf("corrupt-entry error %q does not name the cell", err)
		}
		if l, ok := s.(runner.Locator); ok && !strings.Contains(err.Error(), l.Locate(h)) {
			t.Fatalf("corrupt-entry error %q does not name the location %q", err, l.Locate(h))
		}
	})

	t.Run("StatsCount", func(t *testing.T) {
		s := mk(t)
		h := testHash(0)
		if _, _, err := s.Get(h); err != nil {
			t.Fatalf("Get: %v", err)
		}
		if err := s.Put(h, envelope("cell/a", "fp", 1)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, _, err := s.Get(h); err != nil {
			t.Fatalf("Get: %v", err)
		}
		st := s.Stats()
		if st.Name == "" {
			t.Fatal("Stats().Name is empty")
		}
		if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
			t.Fatalf("Stats = hits=%d misses=%d puts=%d, want 1/1/1", st.Hits, st.Misses, st.Puts)
		}
	})

	t.Run("ConcurrentGetPut", func(t *testing.T) {
		s := mk(t)
		const goroutines, rounds = 8, 32
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					h := testHash(i % 7)
					want := envelope(fmt.Sprintf("cell/%d", i%7), "fp", i%7)
					if err := s.Put(h, want); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					got, ok, err := s.Get(h)
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					// Another goroutine may have overwritten the hash
					// with its own (identical) envelope; a hit must
					// always carry complete, valid bytes.
					if ok && !bytes.Equal(got, want) {
						t.Errorf("Get returned torn or foreign bytes: %q", got)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// RunEviction exercises a size-bounded backend: occupancy must respect
// the bound, eviction must be counted and least-recently-used first.
func RunEviction(t *testing.T, mk func(t *testing.T, maxBytes int64) runner.Store) {
	one := envelope("cell/a", "fp", 11111111)
	entry := int64(len(one))
	s := mk(t, 4*entry)
	// Fill to the bound, then touch entry 0 and push two more: the
	// untouched oldest entries must go, the refreshed one must stay.
	for i := 0; i < 4; i++ {
		if err := s.Put(testHash(i), one); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, ok, _ := s.Get(testHash(0)); !ok {
		t.Fatal("entry 0 missing before the bound was exceeded")
	}
	for i := 4; i < 6; i++ {
		if err := s.Put(testHash(i), one); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	st := s.Stats()
	if st.Bytes > 4*entry {
		t.Fatalf("occupancy %d bytes exceeds the %d-byte bound", st.Bytes, 4*entry)
	}
	if st.Evictions != 2 {
		t.Fatalf("Stats().Evictions = %d, want 2", st.Evictions)
	}
	if _, ok, _ := s.Get(testHash(0)); !ok {
		t.Fatal("recently-used entry 0 was evicted before older entries")
	}
	for _, i := range []int{1, 2} {
		if _, ok, _ := s.Get(testHash(i)); ok {
			t.Fatalf("least-recently-used entry %d survived eviction", i)
		}
	}
}

// ServeStore mounts backend behind the store wire protocol on an
// httptest server and returns its base URL; the server shuts down with
// the test.
func ServeStore(t *testing.T, backend runner.Store) string {
	t.Helper()
	srv := httptest.NewServer(runner.StoreHandler(backend))
	t.Cleanup(srv.Close)
	return srv.URL
}

// Flaky wraps a Store with configurable fault injection, for tests
// proving that a degrading backend costs warnings and recompute, never
// correctness. The zero value (around an Inner) injects nothing.
type Flaky struct {
	// Inner is the wrapped backend.
	Inner runner.Store
	// Latency is added to every operation before it runs.
	Latency time.Duration

	mu       sync.Mutex
	failGets int // remaining Gets to fail; < 0 = every one
	failPuts int
	getErr   error
	putErr   error
	gets     int
	puts     int
}

// FailGets makes the next n Gets return err (n < 0: every Get).
func (f *Flaky) FailGets(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failGets, f.getErr = n, err
}

// FailPuts makes the next n Puts return err (n < 0: every Put).
func (f *Flaky) FailPuts(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failPuts, f.putErr = n, err
}

// Ops reports how many Gets and Puts reached the wrapper (injected
// failures included).
func (f *Flaky) Ops() (gets, puts int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets, f.puts
}

// Get delegates to Inner unless a failure is due.
func (f *Flaky) Get(hash string) ([]byte, bool, error) {
	time.Sleep(f.Latency)
	f.mu.Lock()
	f.gets++
	fail := f.failGets != 0
	err := f.getErr
	if f.failGets > 0 {
		f.failGets--
	}
	f.mu.Unlock()
	if fail {
		if err == nil {
			err = errors.New("injected get failure")
		}
		return nil, false, err
	}
	return f.Inner.Get(hash)
}

// Put delegates to Inner unless a failure is due.
func (f *Flaky) Put(hash string, data []byte) error {
	time.Sleep(f.Latency)
	f.mu.Lock()
	f.puts++
	fail := f.failPuts != 0
	err := f.putErr
	if f.failPuts > 0 {
		f.failPuts--
	}
	f.mu.Unlock()
	if fail {
		if err == nil {
			err = errors.New("injected put failure")
		}
		return err
	}
	return f.Inner.Put(hash, data)
}

// Stats delegates to the wrapped backend.
func (f *Flaky) Stats() runner.TierStats { return f.Inner.Stats() }

// Locate delegates when the wrapped backend can name locations.
func (f *Flaky) Locate(hash string) string {
	if l, ok := f.Inner.(runner.Locator); ok {
		return l.Locate(hash)
	}
	return ""
}
