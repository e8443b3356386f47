package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pacram/internal/trace"
)

// writeTraceSpec writes a one-core spec file whose trace core is the
// given JSON object and returns its path.
func writeTraceSpec(t *testing.T, dir, traceJSON string) string {
	t.Helper()
	spec := `{
	  "name": "x",
	  "sim": { "instructions": 1000 },
	  "workloads": [{ "name": "g", "members": [
	    { "cores": [ { "trace": ` + traceJSON + ` } ] } ] }],
	  "columns": [{ "name": "ipc", "group": "g", "metric": "sumIPC" }]
	}`
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayFormIdentity pins the content-addressing contract of
// trace cores: the same records as an inline paste and as a text or
// binary file loaded through LoadFile must resolve to the same
// digest — the workload identity in the job key — so all three forms
// collapse onto one cached cell. The name is display-only and must
// not perturb the digest.
func TestReplayFormIdentity(t *testing.T) {
	text := "# fixture\n3 0x1000 R\n0 0x2040 W\n7 0x1000 R\n"
	recs, err := trace.ReadRecords(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.trace"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := trace.EncodeBinary(&bin, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.bin"), bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s := &Spec{Name: "x"}
	forms := map[string]*TraceSpec{"inline": {Name: "k", Inline: text}}
	for form, traceJSON := range map[string]string{
		"text":   `{ "name": "other-name", "path": "a.trace" }`,
		"binary": `{ "name": "k", "path": "a.bin" }`,
	} {
		loaded, err := LoadFile(writeTraceSpec(t, dir, traceJSON))
		if err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		forms[form] = loaded.Workloads[0].Members[0].Cores[0].Trace
	}
	var digest string
	for form, ts := range forms {
		rc, err := s.resolveReplay("cores[0].trace", ts)
		if err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		if !reflect.DeepEqual(rc.recs, recs) {
			t.Errorf("%s: records differ from source", form)
		}
		if digest == "" {
			digest = rc.Digest
		} else if rc.Digest != digest {
			t.Errorf("%s: digest %s != %s (forms must collapse onto one cell)", form, rc.Digest, digest)
		}
	}

	// Loop truncation changes the records, so it must change the
	// identity.
	rc, err := s.resolveReplay("cores[0].trace", &TraceSpec{Inline: text, Loop: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.recs) != 2 {
		t.Errorf("loop 2: got %d records", len(rc.recs))
	}
	if rc.Digest == digest {
		t.Error("loop truncation left the digest unchanged")
	}
}

// TestLoadFileInlinesTraces pins LoadFile's self-containment rewrite:
// a relative trace path resolves against the spec file's directory,
// the loaded spec carries the records inline (so it survives the wire
// and a working-directory change), and the rewrite preserves both the
// path-derived display name and the content digest.
func TestLoadFileInlinesTraces(t *testing.T) {
	dir := t.TempDir()
	text := "3 0x1000 R\n0 0x2040 W\n"
	if err := os.MkdirAll(filepath.Join(dir, "traces"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "traces", "k.trace"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFile(writeTraceSpec(t, dir, `{ "path": "traces/k.trace" }`))
	if err != nil {
		t.Fatal(err)
	}
	ts := s.Workloads[0].Members[0].Cores[0].Trace
	if ts.Path != "" || ts.Inline == "" {
		t.Fatalf("trace not inlined: path %q, inline %d bytes", ts.Path, len(ts.Inline))
	}
	if ts.Name != "k" {
		t.Errorf("path-derived name lost: %q", ts.Name)
	}
	rc, err := s.resolveReplay("t", ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.resolveReplay("t", &TraceSpec{Name: "k", Inline: text})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Digest != want.Digest {
		t.Errorf("inlining changed the digest: %s != %s", rc.Digest, want.Digest)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("loaded spec no longer self-validates: %v", err)
	}
}

// TestReplayErrors covers the resolver's validation paths. A trace
// path is rejected at the field whether or not the file exists:
// compiling never reads a file, so only LoadFile resolves a path.
func TestReplayErrors(t *testing.T) {
	s := &Spec{Name: "x"}
	cases := map[string]struct {
		ts   *TraceSpec
		want string
	}{
		"neither":  {&TraceSpec{}, "cores[0].trace.inline"},
		"both":     {&TraceSpec{Path: "a", Inline: "3 0x0 R\n"}, "cores[0].trace.path"},
		"negLoop":  {&TraceSpec{Inline: "3 0x0 R\n", Loop: -1}, "cores[0].trace.loop"},
		"missing":  {&TraceSpec{Path: filepath.Join(t.TempDir(), "nope.trace")}, "cores[0].trace.path"},
		"badText":  {&TraceSpec{Inline: "not a trace line\n"}, "cores[0].trace"},
		"emptyRec": {&TraceSpec{Inline: "# only a comment\n"}, "cores[0].trace"},
	}
	for name, tc := range cases {
		_, err := s.resolveReplay("cores[0].trace", tc.ts)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", name, err, tc.want)
		}
	}

	// LoadFile resolves paths, so it owns their errors: a core that
	// gives both forms, and a file that is not there.
	dir := t.TempDir()
	for name, traceJSON := range map[string]string{
		"both":    `{ "path": "a.trace", "inline": "3 0x0 R\n" }`,
		"missing": `{ "path": "nope.trace" }`,
	} {
		_, err := LoadFile(writeTraceSpec(t, dir, traceJSON))
		if err == nil {
			t.Errorf("LoadFile %s: accepted", name)
		} else if !strings.Contains(err.Error(), `workloads["g"].members[0].cores[0].trace`) {
			t.Errorf("LoadFile %s: error %q does not name the trace core", name, err)
		}
	}
}
