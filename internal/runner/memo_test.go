package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pacram/internal/sim"
)

// getCellTwoPass is GetCell's decode without a store or a kept value,
// the reference its outcomes are checked against: the envelope into an
// entry, then the entry's raw result into out.
func getCellTwoPass(data []byte, fingerprint, key string, out any) (bool, error) {
	var e entry
	if json.Unmarshal(data, &e) != nil {
		return false, fmt.Errorf("cell %s: corrupt cache entry", key)
	}
	if e.Key != key || e.Fingerprint != fullFingerprint(fingerprint) {
		return false, nil
	}
	if uerr := json.Unmarshal(e.Result, out); uerr != nil {
		return false, fmt.Errorf("cell %s: decoding cached result: %v", key, uerr)
	}
	return true, nil
}

// checkGetCell puts data in a MemStore and reads it under key as a T.
// GetCell must never panic and must reach the two-pass reference's
// outcome (hit, error class and message) and, on a hit, its value with
// every float equal by bits, on the first (decoding) call and on a
// second call that can reuse a kept value. DecodeCellEnvelope must
// succeed exactly on the reference's hits, with the same value.
func checkGetCell[T any](t *testing.T, data []byte, key string) {
	var want T
	wantHit, wantErr := getCellTwoPass(data, "fp", key, &want)
	m := NewMemStore(0)
	if err := m.Put("h", data); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		var got T
		hit, err := GetCell(m, "h", "fp", key, &got)
		if hit != wantHit || (err == nil) != (wantErr == nil) {
			t.Fatalf("pass %d: GetCell = hit=%v err=%v, reference hit=%v err=%v", pass, hit, err, wantHit, wantErr)
		}
		if err != nil {
			var ce *CellError
			if !errors.As(err, &ce) {
				t.Fatalf("pass %d: error %T is not a *CellError", pass, err)
			}
			if got := strings.Replace(err.Error(), " at mem:h", "", 1); got != wantErr.Error() {
				t.Fatalf("pass %d: error %q, reference %q", pass, got, wantErr)
			}
		}
		if hit && !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("pass %d: value %+v, reference %+v", pass, got, want)
		}
		var zero T
		if !hit && !reflect.DeepEqual(got, zero) {
			t.Fatalf("pass %d: a miss wrote out: %+v", pass, got)
		}
	}
	var remote T
	err := DecodeCellEnvelope(data, "fp", key, &remote)
	if (err == nil) != wantHit {
		t.Fatalf("DecodeCellEnvelope err=%v, reference hit=%v err=%v", err, wantHit, wantErr)
	}
	if wantHit && !sameBits(reflect.ValueOf(remote), reflect.ValueOf(want)) {
		t.Fatalf("DecodeCellEnvelope value %+v, reference %+v", remote, want)
	}
}

// sameBits reports whether a and b are deeply equal with every float
// compared by its bits, so -0 and 0 differ.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// decodes counts countingResult decodes across the package's tests.
var decodes atomic.Int64

// countingResult is a cell result that counts how often it is decoded.
type countingResult struct {
	N   int
	IPC []float64
}

func (c *countingResult) UnmarshalJSON(b []byte) error {
	decodes.Add(1)
	type plain countingResult
	return json.Unmarshal(b, (*plain)(c))
}

// countDecodes returns how many countingResult decodes f performs.
func countDecodes(f func()) int64 {
	before := decodes.Load()
	f()
	return decodes.Load() - before
}

// hideMemo wraps a store so GetCell cannot see its memoizer methods:
// the store as it behaves without the memo.
type hideMemo struct{ Store }

func mustPutCell(t testing.TB, s Store, hash, fp, key string, v any) {
	t.Helper()
	if err := PutCell(s, hash, fp, key, v); err != nil {
		t.Fatal(err)
	}
}

func getCounting(t *testing.T, s Store, hash, fp, key string) (countingResult, bool) {
	t.Helper()
	var out countingResult
	hit, err := GetCell(s, hash, fp, key, &out)
	if err != nil {
		t.Fatalf("GetCell(%s): %v", key, err)
	}
	return out, hit
}

// memoStores are the memoizing stacks: the bare memory tier and the
// daemon's mem+disk stack.
func memoStores(t *testing.T) map[string]Store {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":    NewMemStore(0),
		"tiered": NewTiered(NewMemStore(0), disk),
	}
}

// TestMemoDecodesOnce: N warm hits on one entry decode it once, and
// every hit returns the stored value.
func TestMemoDecodesOnce(t *testing.T) {
	for name, s := range memoStores(t) {
		t.Run(name, func(t *testing.T) {
			want := countingResult{N: 7, IPC: []float64{0.5, 1.25}}
			mustPutCell(t, s, "h", "fp", "cell/a", want)
			n := countDecodes(func() {
				for i := 0; i < 10; i++ {
					got, hit := getCounting(t, s, "h", "fp", "cell/a")
					if !hit || !reflect.DeepEqual(got, want) {
						t.Fatalf("hit %d = %+v (hit=%v), want %+v", i, got, hit, want)
					}
				}
			})
			if n != 1 {
				t.Fatalf("10 warm hits decoded %d times, want 1", n)
			}
		})
	}
}

// TestMemoTieredPromotion: a hit served by a slower tier is promoted
// into the memory tier as the same bytes, so its decoded value is kept
// there and the next hit does not decode.
func TestMemoTieredPromotion(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustPutCell(t, disk, "h", "fp", "cell/a", countingResult{N: 3})
	s := NewTiered(NewMemStore(0), disk)
	if n := countDecodes(func() {
		for i := 0; i < 3; i++ {
			if got, hit := getCounting(t, s, "h", "fp", "cell/a"); !hit || got.N != 3 {
				t.Fatalf("hit %d = %+v (hit=%v), want N=3", i, got, hit)
			}
		}
	}); n != 1 {
		t.Fatalf("a promoted entry decoded %d times over 3 hits, want 1", n)
	}
}

// TestMemoPutDecodesAgain: new bytes under the same hash drop the kept
// value, so the next hit decodes the new entry.
func TestMemoPutDecodesAgain(t *testing.T) {
	for name, s := range memoStores(t) {
		t.Run(name, func(t *testing.T) {
			mustPutCell(t, s, "h", "fp", "cell/a", countingResult{N: 1})
			getCounting(t, s, "h", "fp", "cell/a")
			mustPutCell(t, s, "h", "fp", "cell/a", countingResult{N: 2})
			var got countingResult
			if n := countDecodes(func() { got, _ = getCounting(t, s, "h", "fp", "cell/a") }); n != 1 {
				t.Fatalf("hit after a replacing Put decoded %d times, want 1", n)
			}
			if got.N != 2 {
				t.Fatalf("hit after a replacing Put = %+v, want N=2", got)
			}
		})
	}
}

// TestMemoEvictionDropsValue: an evicted entry takes its value with it.
// The same bytes put back are a new entry and decode again.
func TestMemoEvictionDropsValue(t *testing.T) {
	data, err := EncodeCellEnvelope("fp", "cell/a", countingResult{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemStore(2 * int64(len(data)))
	if err := m.Put("h", data); err != nil {
		t.Fatal(err)
	}
	getCounting(t, m, "h", "fp", "cell/a")
	if m.memo("h", data) == nil {
		t.Fatal("no value kept after a hit")
	}
	for i := 0; i < 2; i++ {
		mustPutCell(t, m, fmt.Sprintf("other%d", i), "fp", fmt.Sprintf("cell/%d", i), countingResult{N: 1})
	}
	if st := m.Stats(); st.Evictions == 0 {
		t.Fatalf("no eviction: %+v", st)
	}
	if _, hit := getCounting(t, m, "h", "fp", "cell/a"); hit {
		t.Fatal("evicted entry still hit")
	}
	if err := m.Put("h", data); err != nil {
		t.Fatal(err)
	}
	if m.memo("h", data) != nil {
		t.Fatal("re-put bytes came back with the evicted entry's value")
	}
	if n := countDecodes(func() { getCounting(t, m, "h", "fp", "cell/a") }); n != 1 {
		t.Fatalf("hit after eviction decoded %d times, want 1", n)
	}
}

// TestMemoMismatchIsSilentMiss: an entry whose value is kept, read under
// another key or fingerprint, is a plain miss that leaves out alone.
func TestMemoMismatchIsSilentMiss(t *testing.T) {
	for name, s := range memoStores(t) {
		t.Run(name, func(t *testing.T) {
			mustPutCell(t, s, "h", "fp", "cell/a", countingResult{N: 1})
			getCounting(t, s, "h", "fp", "cell/a")
			for _, c := range []struct{ fp, key string }{{"fp", "cell/b"}, {"fp2", "cell/a"}, {"f", "cell/a"}} {
				out := countingResult{N: -1}
				hit, err := GetCell(s, "h", c.fp, c.key, &out)
				if hit || err != nil || out.N != -1 {
					t.Fatalf("GetCell(%q, %q) = hit=%v err=%v out=%+v, want a silent miss that leaves out alone",
						c.fp, c.key, hit, err, out)
				}
			}
		})
	}
}

// TestMemoCorruptOverwrite: corrupt bytes put over an entry whose value
// is kept come back as the corrupt-entry CellError, not the old value.
func TestMemoCorruptOverwrite(t *testing.T) {
	for name, s := range memoStores(t) {
		t.Run(name, func(t *testing.T) {
			mustPutCell(t, s, "h", "fp", "cell/a", countingResult{N: 1})
			getCounting(t, s, "h", "fp", "cell/a")
			if err := s.Put("h", []byte("{torn write")); err != nil {
				t.Fatal(err)
			}
			var out countingResult
			hit, err := GetCell(s, "h", "fp", "cell/a", &out)
			var ce *CellError
			if hit || !errors.As(err, &ce) || !strings.Contains(err.Error(), "corrupt cache entry") {
				t.Fatalf("GetCell over corrupt bytes = hit=%v err=%v, want the corrupt-entry CellError", hit, err)
			}
			if ce.Location != locate(s, "h") {
				t.Fatalf("corrupt-entry location %q, want %q", ce.Location, locate(s, "h"))
			}
		})
	}
}

// TestMemoStatsUnchanged: the same cold and warm runs leave every
// tier's counters where a store without the memo leaves them.
func TestMemoStatsUnchanged(t *testing.T) {
	counters := func(memo bool) []TierStats {
		disk, err := NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stack := NewTiered(NewMemStore(1500), disk)
		var s Store = stack
		if !memo {
			s = hideMemo{stack}
		}
		// One worker keeps the LRU order, and so every counter,
		// deterministic. The short rounds hit the memory tier; the
		// full ones evict from it and promote disk hits into it.
		jobs := testJobs(12)
		for _, round := range [][]Job[mixResult]{jobs, jobs[8:], jobs, jobs[8:]} {
			if _, err := Run(Options{Workers: 1, Seed: 5, Fingerprint: "stats:v1", Store: s}, round); err != nil {
				t.Fatal(err)
			}
		}
		out := stack.PerTier()
		for i := range out {
			out[i].GetMicros, out[i].PutMicros = 0, 0
		}
		return out
	}
	with, without := counters(true), counters(false)
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("tier stats with the memo:\n%+v\nwithout:\n%+v", with, without)
	}
	if with[0].Evictions == 0 || with[0].Hits == 0 || with[1].Hits == 0 {
		t.Fatalf("runs did not exercise hits, promotions and eviction: %+v", with)
	}
}

// TestMemoRacingPut: GetCell racing Puts of two envelopes on one hash
// only ever returns one of them, and a kept value always belongs to
// the bytes it sits beside.
func TestMemoRacingPut(t *testing.T) {
	m := NewMemStore(0)
	envs := make([][]byte, 2)
	for i := range envs {
		var err error
		if envs[i], err = EncodeCellEnvelope("fp", "cell/a", countingResult{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	check := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		e := m.entries["h"].Value.(*memEntry)
		if e.memo == nil {
			return
		}
		if want := bytes.Equal(e.data, envs[1]); (e.memo.value.(countingResult).N == 1) != want {
			t.Errorf("entry holding %s keeps the value %+v", e.data, e.memo.value)
		}
	}
	if err := m.Put("h", envs[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g == 0 {
					if err := m.Put("h", envs[i%2]); err != nil {
						t.Error(err)
						return
					}
					check()
					continue
				}
				var out countingResult
				hit, err := GetCell(m, "h", "fp", "cell/a", &out)
				if err != nil || !hit || out.N < 0 || out.N > 1 {
					t.Errorf("GetCell = %+v hit=%v err=%v", out, hit, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	check()
}

// FuzzGetCell puts arbitrary envelope bytes in a MemStore and reads
// them as a type with no one-pass decode (checkGetCell).
func FuzzGetCell(f *testing.F) {
	type result struct {
		IPC    []float64
		Cycles uint64
		Name   string
		Stats  map[string]int64
		Ptr    *int
	}
	good, err := EncodeCellEnvelope("fp", "cell/a", result{IPC: []float64{0.5}, Cycles: 9, Name: "x"})
	if err != nil {
		f.Fatal(err)
	}
	ffp := fullFingerprint("fp")
	enc := func(v string) string { b, _ := json.Marshal(v); return string(b) }
	for _, seed := range []struct{ data, key string }{
		{string(good), "cell/a"},
		{string(good), "cell/b"},
		{string(good[:len(good)-1]), "cell/a"},
		{`{"key":"cell/a","fingerprint":` + enc(ffp) + `}`, "cell/a"},
		{`{"key":"cell/a","fingerprint":` + enc(ffp) + `,"result":null}`, "cell/a"},
		{`{"key":"cell/a","fingerprint":` + enc(ffp) + `,"result":{"Cycles":1},"result":{"Name":"y"}}`, "cell/a"},
		{`{"key":"cell/a","fingerprint":` + enc(ffp) + `,"result":{"Cycles":"no"}}`, "cell/a"},
		{`{"key":"cell/a","fingerprint":` + enc(ffp) + `,"result":{"Cycles":1}, "key":"cell/b"}`, "cell/a"},
		{`{"key":"cell/a","fingerprint":` + enc(ffp) + `,"result":{"Cycles":1}}`, "cell/a"},
		{`{"KEY":"cell/a","fingerprint":` + enc(ffp) + `,"Result":{"Cycles":1}}`, "cell/a"},
		{"{\"key\":\"cell/\xff\",\"fingerprint\":" + enc(ffp) + `,"result":{"Cycles":1}}`, "cell/\xff"},
		{`{"key":5,"fingerprint":` + enc(ffp) + `,"result":{}}`, "cell/a"},
		{`[1,2]`, "cell/a"},
		{`null`, ""},
		{``, "cell/a"},
	} {
		f.Add([]byte(seed.data), seed.key)
	}
	f.Fuzz(checkGetCell[result])
}

// BenchmarkGetCell measures one warm hit of a fig17-sized sim.Result
// envelope: GetCell on a store that keeps no value (disk and remote
// hits, a first memory-tier hit), and GetCell on a memory tier that
// keeps one.
func BenchmarkGetCell(b *testing.B) {
	const key = fig17Key
	data, err := EncodeCellEnvelope("scenario:v1", key, fig17Result)
	if err != nil {
		b.Fatal(err)
	}
	mem := NewMemStore(0)
	if err := mem.Put("h", data); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		get  func(out *sim.Result) (bool, error)
	}{
		{"decode", func(out *sim.Result) (bool, error) { return GetCell(hideMemo{mem}, "h", "scenario:v1", key, out) }},
		{"memo", func(out *sim.Result) (bool, error) { return GetCell(mem, "h", "scenario:v1", key, out) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out sim.Result
				if hit, err := c.get(&out); !hit || err != nil {
					b.Fatalf("hit=%v err=%v", hit, err)
				}
			}
		})
	}
}
