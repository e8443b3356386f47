package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"pacram/internal/trace"
)

// replayCore is a trace-replay core in canonical, content-addressed
// form. The digest of the records' canonical binary encoding is the
// workload's identity in the job key — a text trace and its binary
// re-encoding, inlined by LoadFile, or an inline paste of the same
// records collapse onto one cell — while the records themselves ride
// along unexported, outside the JSON the key hashes.
type replayCore struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	recs   []trace.Record
}

// resolveReplay canonicalizes one inline TraceSpec. A trace path is
// rejected: compiling reads nothing but the spec's bytes, so only
// LoadFile, which inlines the records, resolves a path.
func (s *Spec) resolveReplay(path string, ts *TraceSpec) (*replayCore, error) {
	if ts.Path != "" {
		return nil, s.errf(path+".path", "trace files are read only when a spec file is loaded (scenario.LoadFile); inline the records instead")
	}
	if ts.Inline == "" {
		return nil, s.errf(path+".inline", "need the trace records inline")
	}
	if ts.Loop < 0 {
		return nil, s.errf(path+".loop", "must be >= 0, got %d", ts.Loop)
	}
	recs, err := trace.ReadRecords(strings.NewReader(ts.Inline))
	if err != nil {
		return nil, s.errf(path, "%v", err)
	}
	if ts.Loop > 0 && ts.Loop < len(recs) {
		recs = recs[:ts.Loop]
	}
	var canon bytes.Buffer
	if err := trace.EncodeBinary(&canon, recs); err != nil {
		return nil, s.errf(path, "%v", err)
	}
	sum := sha256.Sum256(canon.Bytes())
	digest := hex.EncodeToString(sum[:])
	name := ts.Name
	if name == "" {
		name = "trace-" + digest[:8]
	}
	return &replayCore{Name: name, Digest: digest, recs: recs}, nil
}
