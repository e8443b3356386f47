package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pacram/internal/modelid"
)

// buildID is the identity every stored fingerprint and cell address
// carries: the model identity (modelid.Model, generated from the
// sources of the packages that decide a result), the architecture and
// the toolchain version. The last two stay because the compiler and
// the architecture can change float results (FMA fusion on arm64, for
// one). All three are compile-time strings, so nothing is hashed at
// run time. Any two processes built from the same model share cells —
// simulate, scenario, artifact and pacramd alike, and a remote origin
// with its clients — while a change to the model misses every cell
// the old model computed.
var buildID = modelid.Model + "/" + runtime.GOARCH + "/" + runtime.Version()

// buildSuffix is what fullFingerprint appends to a caller's
// fingerprint.
var buildSuffix = "\x1fbuild=" + buildID

// fullFingerprint is what entries are stored and validated under: the
// caller's fingerprint plus the build identity.
func fullFingerprint(fingerprint string) string {
	return fingerprint + buildSuffix
}

// isFullFingerprint reports whether full is fullFingerprint(fingerprint)
// without building the latter, so a memory-tier hit allocates nothing.
func isFullFingerprint(full, fingerprint string) bool {
	return strings.HasPrefix(full, fingerprint) && full[len(fingerprint):] == buildSuffix
}

// hashCell is the content address of one cell: the full fingerprint
// (caller's plus build identity), the base seed and the job key. It is
// shared by every store backend and the Pool's in-flight
// deduplication, so they all stay aligned on what "the same cell"
// means.
//
// The hashed message is fullFingerprint(fingerprint), the decimal
// seed and the key joined by \x1f, written straight into one buffer
// (the on-disk layout depends on these exact bytes).
func hashCell(fingerprint string, seed uint64, key string) string {
	var buf [1024]byte
	msg := append(buf[:0], fingerprint...)
	msg = append(msg, buildSuffix...)
	msg = append(msg, '\x1f')
	msg = strconv.AppendUint(msg, seed, 10)
	msg = append(msg, '\x1f')
	msg = append(msg, key...)
	sum := sha256.Sum256(msg)
	var out [40]byte
	hex.Encode(out[:], sum[:20])
	return string(out[:])
}

// DiskStore persists envelopes as one JSON file per hash — the layout
// every release has used, so existing cache directories are read as-is
// with no migration. The zero value is not usable; construct with
// NewDiskStore.
type DiskStore struct {
	dir string
	c   tierCounters
}

// NewDiskStore opens (creating if needed) a store directory.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	return &DiskStore{dir: dir, c: tierCounters{name: "disk"}}, nil
}

// Locate returns the entry's file path (see Locator).
func (d *DiskStore) Locate(hash string) string { return d.path(hash) }

func (d *DiskStore) path(hash string) string {
	return filepath.Join(d.dir, hash+".json")
}

// Get reads the envelope under hash. A missing file is a miss; any
// other read failure is a degradation naming the path.
func (d *DiskStore) Get(hash string) (data []byte, ok bool, err error) {
	start := time.Now()
	defer func() { d.c.recordGet(start, ok, err) }()
	data, rerr := os.ReadFile(d.path(hash))
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("reading cache entry %s: %w", d.path(hash), rerr)
	}
	return data, true, nil
}

// Put writes the envelope under hash atomically: a temp file in the
// same directory, then rename, so a concurrent reader sees either
// nothing or the complete entry.
func (d *DiskStore) Put(hash string, data []byte) (err error) {
	start := time.Now()
	defer func() { d.c.recordPut(start, err) }()
	tmp, err := os.CreateTemp(d.dir, hash+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), d.path(hash)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Stats returns the store's operation counters.
func (d *DiskStore) Stats() TierStats { return d.c.snapshot() }
