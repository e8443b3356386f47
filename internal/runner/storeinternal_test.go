package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pacram/internal/modelid"
)

// TestDiskStoreReadsPreexistingLayout hand-writes a cache entry in the
// exact on-disk layout every release has used — dir/<hash>.json
// holding the {key, fingerprint, result} envelope — and checks a fresh
// DiskStore serves it with no migration. This is the byte-level
// compatibility contract for existing cache directories.
func TestDiskStoreReadsPreexistingLayout(t *testing.T) {
	dir := t.TempDir()
	hash := hashCell("compat:v1", 7, "cell/a")
	raw, err := json.Marshal(entry{
		Key:         "cell/a",
		Fingerprint: fullFingerprint("compat:v1"),
		Result:      json.RawMessage(`{"Key":"cell/a","Count":9}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, hash+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got mixResult
	hit, err := GetCell(store, hash, "compat:v1", "cell/a", &got)
	if err != nil || !hit {
		t.Fatalf("GetCell = hit=%v err=%v, want a hit on the pre-existing entry", hit, err)
	}
	if got.Key != "cell/a" || got.Count != 9 {
		t.Fatalf("loaded %+v, want the handwritten entry", got)
	}

	// And the engine itself serves it: a Run over the directory loads
	// the cell instead of recomputing.
	computed := false
	jobs := []Job[mixResult]{{Key: "cell/a", Run: func(c Ctx) (mixResult, error) {
		computed = true
		return compute(c)
	}}}
	res, err := Run(Options{Workers: 1, Seed: 7, Fingerprint: "compat:v1", Store: store}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if computed {
		t.Fatal("engine recomputed a cell present in the pre-existing layout")
	}
	if !reflect.DeepEqual(res[0], got) {
		t.Fatalf("engine served %+v, want %+v", res[0], got)
	}
}

// TestCorruptEntryWarningNamesCellAndPath plants corrupt bytes at a
// cell's exact cache path and checks the run-level warning names both
// the cell key and the file path — the operator needs to know which
// file to delete — while the cell is recomputed correctly.
func TestCorruptEntryWarningNamesCellAndPath(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "cell/3"
	hash := hashCell("corrupt:v1", 42, key)
	path := filepath.Join(dir, hash+".json")
	if err := os.WriteFile(path, []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var warnings []string
	res, err := Run(Options{Workers: 2, Seed: 42, Fingerprint: "corrupt:v1", Store: store,
		OnWarning: func(w Warning) {
			mu.Lock()
			warnings = append(warnings, w.Message())
			mu.Unlock()
		}}, testJobs(6))
	if err != nil {
		t.Fatalf("corrupt entry aborted the run: %v", err)
	}
	if len(res) != 6 {
		t.Fatalf("got %d results, want 6", len(res))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(warnings) != 1 {
		t.Fatalf("got %d warnings, want exactly one (the corrupt cell): %q", len(warnings), warnings)
	}
	for _, want := range []string{key, path} {
		if !strings.Contains(warnings[0], want) {
			t.Fatalf("warning %q does not name %q", warnings[0], want)
		}
	}

	// The recomputed result must have overwritten the corrupt entry.
	var out mixResult
	hit, gerr := GetCell(store, hash, "corrupt:v1", key, &out)
	if gerr != nil || !hit {
		t.Fatalf("after the run, GetCell = hit=%v err=%v, want the rewritten entry", hit, gerr)
	}
	if !reflect.DeepEqual(out, res[3]) {
		t.Fatalf("rewritten entry %+v differs from the computed result %+v", out, res[3])
	}
}

// TestHashCellMatchesFormatted pins hashCell to the fmt form every
// existing cache directory was written under: sha256 over
// "<full fingerprint>\x1f<decimal seed>\x1f<key>", hex, first 40
// digits. Inputs are random, with separators, format verbs and
// multi-byte runes in the strings and keys longer than hashCell's
// stack buffer.
func TestHashCellMatchesFormatted(t *testing.T) {
	formatted := func(fingerprint string, seed uint64, key string) string {
		h := sha256.New()
		fmt.Fprintf(h, "%s\x1f%d\x1f%s", fullFingerprint(fingerprint), seed, key)
		return hex.EncodeToString(h.Sum(nil))[:40]
	}
	rng := rand.New(rand.NewPCG(1, 2))
	alphabet := []rune("abc/:{}\"%d\x1f\x00é世 ")
	str := func(maxLen int) string {
		r := make([]rune, rng.IntN(maxLen+1))
		for i := range r {
			r[i] = alphabet[rng.IntN(len(alphabet))]
		}
		return string(r)
	}
	seeds := []uint64{0, 1, 7, math.MaxUint64}
	for i := 0; i < 2000; i++ {
		seed := rng.Uint64() >> rng.IntN(64)
		if i < len(seeds) {
			seed = seeds[i]
		}
		fp, key := str(40), str(1500)
		if got, want := hashCell(fp, seed, key), formatted(fp, seed, key); got != want {
			t.Fatalf("hashCell(%q, %d, %q) = %s, want %s", fp, seed, key, got, want)
		}
	}
}

// TestCellAddressLayout pins a cell's address to its documented
// message, built here by hand: the caller's fingerprint, "\x1fbuild=",
// the identity (model, architecture and toolchain), "\x1f", the
// decimal seed, "\x1f" and the key. The address is the first 20 bytes
// of the message's SHA-256, hex-encoded. The stored fingerprint is the
// message's first two parts, and isFullFingerprint agrees with
// fullFingerprint.
func TestCellAddressLayout(t *testing.T) {
	identity := modelid.Model + "/" + runtime.GOARCH + "/" + runtime.Version()
	for _, c := range []struct {
		fp   string
		seed uint64
		key  string
	}{
		{"scenario:v1", 1, "fig17/RFM/nrh=64/cfg=0.18/mix00"},
		{"char:v1:rows=8", 0, "fig6/H7"},
		{"", math.MaxUint64, ""},
	} {
		msg := c.fp + "\x1fbuild=" + identity + "\x1f" + strconv.FormatUint(c.seed, 10) + "\x1f" + c.key
		sum := sha256.Sum256([]byte(msg))
		if got, want := hashCell(c.fp, c.seed, c.key), hex.EncodeToString(sum[:20]); got != want {
			t.Errorf("hashCell(%q, %d, %q) = %s, want %s", c.fp, c.seed, c.key, got, want)
		}
		full := fullFingerprint(c.fp)
		if want := c.fp + "\x1fbuild=" + identity; full != want {
			t.Errorf("fullFingerprint(%q) = %q, want %q", c.fp, full, want)
		}
		if !isFullFingerprint(full, c.fp) {
			t.Errorf("isFullFingerprint(fullFingerprint(%q), %q) = false", c.fp, c.fp)
		}
		for _, other := range []string{full + "x", full[:len(full)-1], c.fp + "\x1fbuild=other", c.fp, full + full} {
			if isFullFingerprint(other, c.fp) {
				t.Errorf("isFullFingerprint(%q, %q) = true, want false", other, c.fp)
			}
		}
		if isFullFingerprint(full, c.fp+"x") {
			t.Errorf("isFullFingerprint(%q, %q) = true, want false", full, c.fp+"x")
		}
	}
}

// TestMatrixAddress: Add returns each job's index, a repeated key
// included; Address sets every job's Addr to the content address the
// pool would derive from its key; and a run stores each cell under
// exactly that address.
func TestMatrixAddress(t *testing.T) {
	m := NewMatrix[mixResult]()
	for i, key := range []string{"cell/a", "cell/b", "cell/a"} {
		if got, want := m.Add(key, compute), []int{0, 1, 0}[i]; got != want {
			t.Fatalf("Add(%q) = %d, want %d", key, got, want)
		}
	}
	m.Address("addr:v1", 7)
	store := NewMemStore(0)
	if _, err := Run(Options{Workers: 2, Seed: 7, Fingerprint: "addr:v1", Store: store}, m.Jobs()); err != nil {
		t.Fatal(err)
	}
	for _, j := range m.Jobs() {
		if want := hashCell("addr:v1", 7, j.Key); j.Addr != want {
			t.Fatalf("%s: Addr %s, want %s", j.Key, j.Addr, want)
		}
		if _, ok, err := store.Get(j.Addr); !ok || err != nil {
			t.Fatalf("%s: nothing stored at its address (ok=%v err=%v)", j.Key, ok, err)
		}
	}
}
