package scenario

import (
	"encoding/json"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"pacram/internal/runner"
	"pacram/internal/sim"
)

// TestSpecWireRoundTrip proves specs survive the wire: remote
// submission marshals a parsed Spec back to JSON and the server
// re-parses it, so marshal→parse must reproduce the exact compiled
// plan — same cells, same content-addressed keys, same row count —
// for every built-in and example spec. A field dropped or renamed in
// (de)serialization would shift a cell key and break the remote/local
// byte-identity guarantee.
func TestSpecWireRoundTrip(t *testing.T) {
	specs, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example specs found")
	}
	for _, path := range paths {
		s, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}

	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			orig, err := s.Compile()
			if err != nil {
				t.Fatal(err)
			}
			checkWireRoundTrip(t, s, orig)
		})
	}
}

// checkWireRoundTrip marshals s, parses it back and compiles it: the
// result must have orig's rows, jobs and cell keys, in order.
func checkWireRoundTrip(t testing.TB, s *Spec, orig *Plan) {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("re-parsing marshaled spec: %v\n%s", err, data)
	}
	rt, err := back.Compile()
	if err != nil {
		t.Fatalf("compiling marshaled spec: %v\n%s", err, data)
	}
	if rt.Rows() != orig.Rows() || rt.Jobs() != orig.Jobs() {
		t.Fatalf("round trip changed shape: %d rows/%d jobs -> %d rows/%d jobs",
			orig.Rows(), orig.Jobs(), rt.Rows(), rt.Jobs())
	}
	a, b := orig.Cells(), rt.Cells()
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("cell %d key changed across the wire:\n  local:  %s\n  remote: %s", i, a[i].Key, b[i].Key)
		}
	}
}

// FuzzParseCompile feeds arbitrary documents to the spec front end:
// Parse and Compile must never panic, and every spec that compiles
// must survive the wire round trip with the same jobs and cell keys.
// The corpus seeds are the catalog and paper-figure specs.
func FuzzParseCompile(f *testing.F) {
	for _, dir := range []struct {
		fsys fs.FS
		glob string
	}{{catalogFS, "catalog/*.json"}, {figuresFS, "figures/*.json"}} {
		paths, err := fs.Glob(dir.fsys, dir.glob)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed specs in %s: %v", dir.glob, err)
		}
		for _, p := range paths {
			data, err := fs.ReadFile(dir.fsys, p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	// A million channels: without the per-cell bank bound this compiled,
	// and its first cell ran out of memory.
	f.Add([]byte(`{"name":"probe","sim":{"instructions":1000},"memory":{"channels":1048576},` +
		`"workloads":[{"name":"g","members":[{"cores":[{"workload":"429.mcf"}]}]}],` +
		`"columns":[{"name":"ipc","group":"g","metric":"sumIPC"}]}`))
	// A trace path naming a readable trace file: compiling reads no
	// file, so this must fail at the field, and the target stays
	// hermetic for every input.
	pathDoc := []byte(`{"name":"probe","sim":{"instructions":1000},` +
		`"workloads":[{"name":"g","members":[{"cores":[{"trace":{"path":"../../examples/traces/kernel-loop.trace"}}]}]}],` +
		`"columns":[{"name":"ipc","group":"g","metric":"sumIPC"}]}`)
	if s, err := Parse(pathDoc); err != nil {
		f.Fatal(err)
	} else if _, err := s.Compile(); err == nil || !strings.Contains(err.Error(), "cores[0].trace.path") {
		f.Fatalf("trace.path spec compiled or failed elsewhere: %v", err)
	}
	f.Add(pathDoc)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		orig, err := s.Compile()
		if err != nil {
			return
		}
		for _, c := range orig.Cells() {
			if banks := c.rc.MemCfg.Geometry.TotalBanks(); banks > maxCellBanks {
				t.Fatalf("cell %s compiled with %d banks", c.Key, banks)
			}
			if work := uint64(len(c.cores)) * (c.rc.Insts + c.rc.Warmup); work > maxCellInstructions {
				t.Fatalf("cell %s compiled with %d simulated instructions", c.Key, work)
			}
		}
		checkWireRoundTrip(t, s, orig)
	})
}

// TestSpecWireRoundTripToleratesOptionalSections pins the wire format
// for partially-populated specs: zero-valued optional sections must
// marshal away (not as empty objects the strict parser would still
// accept but a human diffing wire payloads would trip over).
func TestSpecWireRoundTripToleratesOptionalSections(t *testing.T) {
	s := &Spec{
		Name: "wire-minimal",
		Sim:  SimParams{Instructions: 1000},
		Workloads: []Group{{Name: "g", Members: []Member{
			{Cores: []CoreSpec{{Synthetic: &SyntheticSpec{Name: "s", Pattern: "stream", BubbleMean: 10, FootprintMB: 1, BurstLen: 4}}}},
		}}},
		Columns: []Column{{Name: "ipc", Group: "g", Metric: "sumIPC"}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"table", "memory", "baseline", "sweep", "config", "pacram"} {
		if jsonHasField(t, data, absent) {
			t.Errorf("zero-valued %q section marshaled into the wire payload: %s", absent, data)
		}
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func jsonHasField(t *testing.T, data []byte, field string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	_, ok := m[field]
	return ok
}

// TestRunOnSharedPool runs one catalog scenario through a shared pool
// + pre-opened store — the service path — and byte-compares the table
// against the default transient-runner path.
func TestRunOnSharedPool(t *testing.T) {
	s, err := ByName("refresh-stress")
	if err != nil {
		t.Fatal(err)
	}
	local, err := Run(s, RunOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	store, err := runner.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Run(s, RunOptions{Pool: runner.NewPool[sim.Result](4), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderTable(t, pooled), renderTable(t, local); got != want {
		t.Fatalf("pooled run differs from local run:\n--- pooled ---\n%s--- local ---\n%s", got, want)
	}
}
