package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Store is the pluggable result-store contract: content-addressed
// envelope bytes keyed by the cell hash (the same hash the Pool's
// singleflight uses). Backends are dumb byte stores — entry validation
// (key, fingerprint, build identity) happens above them in GetCell, so
// a backend can never be tricked into replaying a wrong result; at
// worst it serves bytes that fail validation and count as a miss.
//
// Implementations must be safe for concurrent use. Get returns the
// stored bytes aliased, and Put may retain data: callers treat both as
// immutable after the call (GetCell/PutCell always do).
//
// Error semantics are degradation semantics: a Store error never
// aborts a sweep. Callers recompute the cell and surface the error
// through Options.OnWarning — once per failing operation — so exactly-once
// degrades to duplicated work, never to a lost or wrong result.
type Store interface {
	// Get returns the envelope bytes stored under hash. A miss is
	// (nil, false, nil); an error means the backend failed in a way
	// worth warning about (the entry may or may not exist).
	Get(hash string) (data []byte, ok bool, err error)
	// Put stores the envelope bytes under hash, replacing any previous
	// entry.
	Put(hash string, data []byte) error
	// Stats returns a snapshot of the backend's operation counters.
	Stats() TierStats
}

// Locator is optionally implemented by stores whose entries have a
// nameable location (a file path, a URL). GetCell uses it to point
// corrupt-entry warnings at the bytes that need deleting.
type Locator interface {
	Locate(hash string) string
}

// TierStats is one store backend's counter snapshot. Hits and misses
// count raw byte-level presence (an entry that later fails envelope
// validation still counted as a hit here); latency is cumulative over
// all operations, so avg = micros/ops.
type TierStats struct {
	// Name identifies the backend: mem, disk, remote or tiered.
	Name string `json:"name"`
	// Hits/Misses/Puts/Errors count operations since construction.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	Errors int64 `json:"errors"`
	// Evictions counts entries dropped by a size bound (mem tier).
	Evictions int64 `json:"evictions,omitempty"`
	// Promotions counts entries copied into faster tiers on a hit
	// (tiered combinator only).
	Promotions int64 `json:"promotions,omitempty"`
	// Entries/Bytes describe current occupancy where the backend can
	// know it cheaply (mem tier).
	Entries int64 `json:"entries,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	// GetMicros/PutMicros are cumulative operation latencies.
	GetMicros int64 `json:"getMicros"`
	PutMicros int64 `json:"putMicros"`
}

// tierCounters is the shared counter block every backend embeds.
type tierCounters struct {
	name                       string
	hits, misses, puts, errors atomic.Int64
	evictions, promotions      atomic.Int64
	getNanos, putNanos         atomic.Int64
}

// recordGet books one Get outcome; start is when the operation began.
func (c *tierCounters) recordGet(start time.Time, ok bool, err error) {
	c.getNanos.Add(int64(time.Since(start)))
	switch {
	case err != nil:
		c.errors.Add(1)
	case ok:
		c.hits.Add(1)
	default:
		c.misses.Add(1)
	}
}

// recordPut books one Put outcome.
func (c *tierCounters) recordPut(start time.Time, err error) {
	c.putNanos.Add(int64(time.Since(start)))
	c.puts.Add(1)
	if err != nil {
		c.errors.Add(1)
	}
}

func (c *tierCounters) snapshot() TierStats {
	return TierStats{
		Name:       c.name,
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Puts:       c.puts.Load(),
		Errors:     c.errors.Load(),
		Evictions:  c.evictions.Load(),
		Promotions: c.promotions.Load(),
		GetMicros:  c.getNanos.Load() / 1e3,
		PutMicros:  c.putNanos.Load() / 1e3,
	}
}

// entry is the stored envelope. Key and fingerprint travel with the
// result and are re-checked on load, so entries are self-describing
// and a hash collision — or a remote origin serving stale bytes —
// cannot silently alias two cells.
type entry struct {
	Key         string          `json:"key"`
	Fingerprint string          `json:"fingerprint"`
	Result      json.RawMessage `json:"result"`
}

// cellDecoder is implemented by cell result types that decode the
// exact bytes json.Marshal writes for them without reflection
// ((*sim.Result).DecodeCell). DecodeCell reports false, leaving its
// receiver untouched, for any other bytes.
type cellDecoder interface {
	DecodeCell(data []byte) bool
}

// decodeCellFast decodes data into out when data is exactly the
// envelope EncodeCellEnvelope writes for key under the full fingerprint
// fp. It compares the envelope's bytes instead of parsing them, and
// decodes only the result. It reports false, leaving out untouched,
// for anything else; the caller then runs the two-pass encoding/json
// decode, which remains the reference for every outcome
// (FuzzGetCellResult).
func decodeCellFast(data []byte, fp, key string, out cellDecoder) bool {
	// json.Marshal writes invalid UTF-8 as U+FFFD, so the expected bytes
	// of such a key would match an entry stored under another key.
	if !utf8.ValidString(key) || !utf8.ValidString(fp) {
		return false
	}
	var buf [256]byte
	prefix := append(buf[:0], `{"key":`...)
	prefix = appendJSONString(prefix, key)
	prefix = append(prefix, `,"fingerprint":`...)
	prefix = appendJSONString(prefix, fp)
	prefix = append(prefix, `,"result":`...)
	n := len(prefix)
	if len(data) <= n || !bytes.Equal(data[:n], prefix) || data[len(data)-1] != '}' {
		return false
	}
	return out.DecodeCell(data[n : len(data)-1])
}

// appendJSONString appends s as json.Marshal writes it.
func appendJSONString(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return append(dst, b...)
}

// CellError is the error type GetCell returns: a store failure or
// corrupt entry attributed to one cell. The rendered message is
// unchanged from when these were plain fmt.Errorf values; the struct
// fields exist so structured consumers (the daemon's slog warnings)
// can log cell and location as fields instead of re-parsing the text.
type CellError struct {
	// Cell is the job key the failing entry belongs to.
	Cell string
	// Location names where the bad bytes live when the backend can say
	// (a file path, a URL); "" otherwise.
	Location string
	msg      string
	err      error
}

func (e *CellError) Error() string { return e.msg }

// Unwrap exposes the backend error, nil for corrupt-entry failures
// detected during validation.
func (e *CellError) Unwrap() error { return e.err }

// GetCell loads the cell stored under hash into out, reporting whether
// it was a usable hit. Validation happens here, above the backend:
// mismatched key or fingerprint (a different build above all) is a
// plain miss, while backend failures and corrupt entries come back as
// a *CellError naming the cell — callers recompute either way, so a
// wrong result is never replayed, but only genuine degradation is
// worth a warning. out is written only on a hit.
//
// A store that keeps decoded values (the memory tier, see memoizer)
// gets the value of each validated hit attached to the bytes it was
// decoded from, and a later hit on those same bytes reuses it without
// decoding. Such hits share one value: callers treat results as
// immutable.
//
// A result type with a DecodeCell method (sim.Result) is decoded in one
// strict pass when the bytes are exactly the envelope PutCell writes for
// this cell; anything else takes the two-pass encoding/json decode,
// which alone decides between a miss and a *CellError.
func GetCell[T any](s Store, hash, fingerprint, key string, out *T) (bool, error) {
	data, ok, err := s.Get(hash)
	if err != nil {
		return false, &CellError{Cell: key, msg: fmt.Sprintf("cell %s: %v", key, err), err: err}
	}
	if !ok {
		return false, nil
	}
	ms, _ := s.(memoizer)
	if ms != nil {
		if m := ms.memo(hash, data); m != nil {
			// m holds the key and fingerprint these very bytes carry.
			if m.key != key || !isFullFingerprint(m.fingerprint, fingerprint) {
				return false, nil
			}
			if v, ok := m.value.(T); ok {
				*out = v
				return true, nil
			}
		}
	}
	fp := fullFingerprint(fingerprint)
	var v T
	if d, ok := any(&v).(cellDecoder); !ok || !decodeCellFast(data, fp, key, d) {
		var e entry
		if json.Unmarshal(data, &e) != nil {
			loc := locate(s, hash)
			return false, &CellError{Cell: key, Location: loc,
				msg: fmt.Sprintf("cell %s: corrupt cache entry%s", key, at(loc))}
		}
		if e.Key != key || e.Fingerprint != fp {
			return false, nil
		}
		if uerr := json.Unmarshal(e.Result, &v); uerr != nil {
			loc := locate(s, hash)
			return false, &CellError{Cell: key, Location: loc, err: uerr,
				msg: fmt.Sprintf("cell %s: decoding cached result%s: %v", key, at(loc), uerr)}
		}
	}
	if ms != nil {
		ms.setMemo(hash, data, &cellMemo{key: key, fingerprint: fp, value: v})
	}
	*out = v
	return true, nil
}

// PutCell stores a computed cell result under hash, as the envelope
// EncodeCellEnvelope writes.
func PutCell(s Store, hash, fingerprint, key string, v any) error {
	data, err := EncodeCellEnvelope(fingerprint, key, v)
	if err != nil {
		return err
	}
	return s.Put(hash, data)
}

// locate names where a corrupt entry lives when the backend can say.
func locate(s Store, hash string) string {
	if l, ok := s.(Locator); ok {
		return l.Locate(hash)
	}
	return ""
}

// at renders a location as a message suffix.
func at(loc string) string {
	if loc == "" {
		return ""
	}
	return " at " + loc
}

// OpenStore builds the one result-store stack a process runs on,
// fastest tier first: a memory tier unless memBytes < 0 (0 means
// DefaultMemStoreBytes), then a disk tier at cacheDir when it is set,
// then a remote tier (a pacramd cache origin) at remoteURL when it is
// set, joined by read-through promotion and write-back (see Tiered).
// Every command opens its store here once and runs all of its
// experiments on it, so a cell one experiment computed is a hit for
// the next; the daemon opens its store here too. With no tier at all
// there is no store: nil, nil.
func OpenStore(cacheDir, remoteURL string, memBytes int64) (*Tiered, error) {
	var tiers []Store
	if memBytes >= 0 {
		tiers = append(tiers, NewMemStore(memBytes))
	}
	if cacheDir != "" {
		disk, err := NewDiskStore(cacheDir)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, disk)
	}
	if remoteURL != "" {
		tiers = append(tiers, NewRemoteStore(remoteURL))
	}
	if len(tiers) == 0 {
		return nil, nil
	}
	return NewTiered(tiers...), nil
}
