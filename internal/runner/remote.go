package runner

import (
	"encoding/json"
	"fmt"
)

// RemoteExecutor lets a Pool execute owner-path cells on remote worker
// machines instead of its local slots — the hook the sweep fabric's
// coordinator plugs in (internal/service). The executor owns worker
// selection (consistent hashing over the fleet), the wire protocol and
// retry policy; the pool owns everything else: singleflight, store
// check-before-dispatch, event emission and — the documented fallback —
// local computation whenever the executor declines or fails. A pool
// with a nil executor, or an executor over an empty fleet, behaves
// byte-identically to a purely local pool.
//
// Implementations must be safe for concurrent use: the pool dispatches
// up to Capacity cells at once.
type RemoteExecutor interface {
	// Capacity estimates how many cells the fleet can execute
	// concurrently (the sum of live workers' pool slots). The pool adds
	// it to its own slot count when sizing an invocation's dispatch
	// goroutines, so a large fleet is kept busy; it is a sizing hint
	// sampled at Run start, not a limit.
	Capacity() int
	// Execute runs one cell remotely. fingerprint and seed are the
	// invocation's Options values, so the worker computes the same cell
	// hash and stores under the same content address.
	//
	// ok=false with a nil error means the executor declines the cell —
	// no worker is responsible (an empty fleet) or the responsible
	// worker is draining — and the pool computes locally without
	// warning. A non-nil error means dispatch genuinely failed (a dead
	// worker, a wire or build mismatch); the pool warns, re-checks the
	// store (the worker may have written the result back before dying),
	// and then computes locally.
	Execute(key, fingerprint string, seed uint64) (RemoteResult, bool, error)
}

// RemoteResult is one successfully remote-executed cell.
type RemoteResult struct {
	// Data is the cell's entry envelope — the same self-describing
	// bytes the store holds (DecodeCellEnvelope validates and unpacks
	// them, so a worker of a different build can never slip a wrong
	// result in).
	Data []byte
	// Worker names the machine that executed the cell, for event
	// attribution. It must be non-empty: Event.Outcome reads a worker
	// name as remote execution.
	Worker string
	// Cached marks a cell the worker served from its own result store
	// instead of computing.
	Cached bool
	// ComputeNanos is the worker-reported compute duration (0 when
	// Cached). The pool attributes the rest of the dispatch round trip
	// — network plus the worker's own queueing — as wait time, so a
	// slow worker holding many cells inflates queue accounting, not
	// compute accounting, and ETA projections stay honest.
	ComputeNanos int64
}

// EncodeCellEnvelope marshals a computed result as the self-describing
// entry envelope (key + full fingerprint + result), the exact bytes
// PutCell stores and the store wire protocol carries. Workers use it to
// answer execute requests in the same currency everything else speaks.
// The bytes are json.Marshal of an entry: appendEnvelopePrefix, then
// json.Marshal(v), then the closing brace.
func EncodeCellEnvelope(fingerprint, key string, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	fp := fullFingerprint(fingerprint)
	// 64 bytes hold the field names, the quotes, the closing brace and
	// the fingerprint's escaped separator.
	data := appendEnvelopePrefix(make([]byte, 0, len(key)+len(fp)+len(raw)+64), key, fp)
	data = append(data, raw...)
	return append(data, '}'), nil
}

// DecodeCellEnvelope validates an envelope against the expected key and
// fingerprint and unpacks the result into out. Unlike GetCell — where a
// mismatch is a routine cache miss — a mismatch here is an error: the
// envelope was produced on request for exactly this cell, so disagreement
// means a build-skewed or broken worker and the caller must fall back
// to local compute. out should point at a zero value: a result type
// with a DecodeCell method takes GetCell's one-pass decode, which
// replaces *out whole where encoding/json would merge into it.
func DecodeCellEnvelope(data []byte, fingerprint, key string, out any) error {
	if d, ok := out.(cellDecoder); ok && decodeCellFast(data, fullFingerprint(fingerprint), key, d) {
		return nil
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return fmt.Errorf("malformed result envelope: %v", err)
	}
	if e.Key != key {
		return fmt.Errorf("result envelope is for cell %q, want %q", e.Key, key)
	}
	if e.Fingerprint != fullFingerprint(fingerprint) {
		return fmt.Errorf("result envelope fingerprint %q does not match this build's %q (worker running a different build?)",
			e.Fingerprint, fullFingerprint(fingerprint))
	}
	if err := json.Unmarshal(e.Result, out); err != nil {
		return fmt.Errorf("decoding remote result: %v", err)
	}
	return nil
}
