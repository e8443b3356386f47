package scenario

import (
	"encoding/json"
	"io/fs"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pacram/internal/exp"
	"pacram/internal/trace"
)

// renderTable gives the byte-exact text a table prints as.
func renderTable(t *testing.T, tbl *exp.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tbl.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestFigureGolden pins the paper figures to the bytes the retired
// exp planners printed: FigureSpec plus Run, at the scale of
//
//	simulate -exp fig3,fig16,fig17,fig18,fig19,run -insts 15000 -warmup 1500
//	  -mixes 1 -nrh 256,64 -mitigations PARA,RFM -workloads 429.mcf,453.povray
//
// must reproduce testdata/figures-tiny.golden, captured from those
// planners. CI compares the default scale against
// testdata/figures.golden through cmd/simulate.
func TestFigureGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures-tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, id := range []string{"fig3", "fig16", "fig17", "fig18", "fig19", "run"} {
		s, err := FigureSpec(id, tinySysOptions())
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := Run(s, RunOptions{Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(renderTable(t, tbl))
	}
	if got.String() != string(want) {
		t.Errorf("figures diverge from testdata/figures-tiny.golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// TestFigureSpecsValidate compiles every paper figure at the default
// scale, checks the figures stay out of the service catalog except
// fig17, which has always been there, that an unknown id is rejected,
// and that fig19 rejects a run with no mix.
func TestFigureSpecsValidate(t *testing.T) {
	ids := figureIDs()
	if !slices.Contains(ids, "fig16") || !slices.Contains(ids, "run") {
		t.Fatalf("figure ids %v lack fig16 or run", ids)
	}
	for _, id := range ids {
		s, err := FigureSpec(id, exp.DefaultSysOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("figure %s: %v", id, err)
		}
		_, err = ByName(id)
		if inCatalog := err == nil; inCatalog != (id == "fig17") {
			t.Errorf("figure %s: in catalog = %v", id, inCatalog)
		}
	}
	if _, err := FigureSpec("fig15", exp.DefaultSysOptions()); err == nil {
		t.Error("fig15 is not a figure spec, but FigureSpec accepted it")
	}
	noMixes := exp.DefaultSysOptions()
	noMixes.MixCount = 0
	if _, err := FigureSpec("fig19", noMixes); err == nil {
		t.Error("fig19 accepted -mixes 0")
	}
}

// TestCatalogValidates compiles every built-in scenario.
func TestCatalogValidates(t *testing.T) {
	specs, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 6 {
		t.Fatalf("catalog has %d scenarios, want >= 6", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s: %v", s.Name, err)
		}
	}
}

// TestCatalogFileNames pins the layout ByName relies on: every
// catalog file is named after its spec, catalog/<name>.json, and names
// that are not a plain file stem are unknown.
func TestCatalogFileNames(t *testing.T) {
	entries, err := fs.ReadDir(catalogFS, "catalog")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := fs.ReadFile(catalogFS, "catalog/"+e.Name())
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if stem := strings.TrimSuffix(e.Name(), ".json"); stem != s.Name {
			t.Errorf("catalog/%s holds spec %q; ByName needs catalog/%s.json", e.Name(), s.Name, s.Name)
		}
	}
	for _, name := range []string{"", ".", "..", "catalog/fig17", "../catalog/fig17", "fig17.json", "/fig17", "nope"} {
		_, err := ByName(name)
		if err == nil || !strings.Contains(err.Error(), "unknown built-in scenario") ||
			!strings.Contains(err.Error(), "hammer-victim") {
			t.Errorf("ByName(%q) = %v, want the unknown-scenario error listing the catalog", name, err)
		}
	}
}

// TestBaselineDeduplication checks that the normalization cell is
// planned once per member, not once per sweep point: datacenter runs
// 10 points over one member and must plan 11 jobs, not 20.
func TestBaselineDeduplication(t *testing.T) {
	s, err := ByName("datacenter-serving")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Jobs() != 11 || p.Rows() != 10 {
		t.Errorf("datacenter-serving plans %d jobs / %d rows, want 11 / 10", p.Jobs(), p.Rows())
	}
}

// TestParallelDeterminism runs a scenario with attacker and phased
// cores at two worker counts; output must be identical.
func TestParallelDeterminism(t *testing.T) {
	shrink := func(name string) *Spec {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s.Sim.Instructions = 6_000
		s.Sim.Warmup = 600
		return s
	}
	for _, name := range []string{"hammer-victim", "multi-tenant"} {
		t.Run(name, func(t *testing.T) {
			one, err := Run(shrink(name), RunOptions{Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			eight, err := Run(shrink(name), RunOptions{Parallel: 8})
			if err != nil {
				t.Fatal(err)
			}
			a, b := renderTable(t, one), renderTable(t, eight)
			if a != b {
				t.Errorf("output differs between -parallel 1 and -parallel 8:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestCacheRoundTrip runs a scenario cold then warm; the warm run must
// serve every cell from the cache and produce identical output.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	load := func() *Spec {
		s, err := ByName("refresh-stress")
		if err != nil {
			t.Fatal(err)
		}
		s.Sim.Instructions = 6_000
		s.Sim.Warmup = 600
		return s
	}
	cold, err := Run(load(), RunOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(load(), RunOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if renderTable(t, cold) != renderTable(t, warm) {
		t.Error("cached re-run differs from cold run")
	}
}

// TestLoaderErrors exercises the validating loader's error paths: each
// broken spec must fail with the precise field path.
func TestLoaderErrors(t *testing.T) {
	// base is a minimal valid spec the cases below mutate.
	base := `{
		"name": "x",
		"sim": {"instructions": 1000},
		"config": {"mitigation": "RFM", "nrh": 64},
		"workloads": [{"name": "g", "members": [{"cores": [{"workload": "429.mcf"}]}]}],
		"columns": [{"name": "ipc", "group": "g", "metric": "sumIPC"}]
	}`
	if s, err := Parse([]byte(base)); err != nil {
		t.Fatal(err)
	} else if err := s.Validate(); err != nil {
		t.Fatalf("base spec should validate: %v", err)
	}

	cases := []struct {
		name, patch, want string
	}{
		{"unknown field", `{"name":"x","bogus":1}`, "bogus"},
		{"unknown workload", `"workloads":[{"name":"g","members":[{"cores":[{"workload":"429.mcf"},{"workload":"470.lbm"},{"workload":"foo"}]}]}]`,
			`workloads["g"].members[0].cores[2].workload: unknown spec "foo"`},
		{"unknown mix", `"workloads":[{"name":"g","members":[{"mix":"mix77"}]}]`,
			`workloads["g"].members[0].mix`},
		{"mix and cores", `"workloads":[{"name":"g","members":[{"mix":"mix00","cores":[{"workload":"429.mcf"}]}]}]`,
			"either mix or cores"},
		{"bad pattern", `"workloads":[{"name":"g","members":[{"cores":[{"synthetic":{"name":"s","pattern":"spiral","bubbleMean":10,"footprintMB":64}}]}]}]`,
			`cores[0].synthetic.pattern: trace: unknown access pattern "spiral"`},
		{"bad attacker", `"workloads":[{"name":"g","members":[{"cores":[{"attacker":{"sides":-3}}]}]}]`,
			"cores[0].attacker"},
		{"phase without accesses", `"workloads":[{"name":"g","members":[{"cores":[{"phases":[{"workload":"429.mcf"}]}]}]}]`,
			"phases[0].accesses"},
		{"unknown mechanism", `"config":{"mitigation":"Chrome","nrh":64}`, `mitigation: unknown mechanism "Chrome"`},
		{"missing nrh", `"config":{"mitigation":"RFM"}`, "nrh"},
		{"bad factor", `"config":{"mitigation":"RFM","nrh":64,"pacram":{"module":"S6","factor":0.5}}`,
			"pacram.factor"},
		{"bad module", `"config":{"mitigation":"RFM","nrh":64,"pacram":{"module":"Z9","factor":0.45}}`,
			"pacram.module"},
		{"bad geometry", `"memory":{"rows":1000}`, "memory"},
		{"negative read queue", `"memory":{"readQueue":-1}`, "memory: memsys: queue depths must be >= 1"},
		{"negative write queue", `"memory":{"writeQueue":-5}`, "memory: memsys: queue depths must be >= 1"},
		{"negative cpu frequency", `"memory":{"cpuFreqGHz":-1}`, "memory: memsys: CPU frequency must be positive"},
		{"swept negative blast radius", `"sweep":{"axes":[{"param":"memory.blastRadius","values":[2,-3]}]}`,
			"memory: memsys: blast radius must be >= 0"},
		{"swept zero blast radius and cpu frequency", `"sweep":{"axes":[{"param":"memory.blastRadius","values":[0,2]},{"param":"memory.cpuFreqGHz","values":[0,3.2]}]}`,
			"sweep.axes[0].values[0]: memory.blastRadius must be nonzero"},
		{"swept zero cpu frequency", `"sweep":{"axes":[{"param":"memory.cpuFreqGHz","values":[3.2,0]}]}`,
			"sweep.axes[0].values[1]: memory.cpuFreqGHz must be nonzero"},
		{"swept zero channels", `"sweep":{"axes":[{"param":"nrh","values":[64]},{"param":"memory.channels","values":[1,0]}]}`,
			"sweep.axes[1].values[1]: memory.channels must be nonzero"},
		{"swept zero trfc scale", `"sweep":{"axes":[{"param":"memory.trfcScale","values":[0]}]}`,
			"sweep.axes[0].values[0]: memory.trfcScale must be nonzero"},
		{"unknown axis param", `"sweep":{"axes":[{"param":"voltage","values":[1]}]}`, `unknown sweep parameter "voltage"`},
		{"mistyped axis value", `"sweep":{"axes":[{"param":"nrh","values":["high"]}]}`, "sweep.axes[0].values[0]"},
		{"label mismatch", `"sweep":{"axes":[{"param":"nrh","values":[64,32],"labels":["only-one"]}]}`, "labels"},
		{"zip length mismatch", `"sweep":{"mode":"zip","axes":[{"param":"nrh","values":[64,32]},{"param":"mitigation","values":["RFM"]}]}`,
			"zip mode needs equal lengths"},
		{"bad sweep mode", `"sweep":{"mode":"cartesian","axes":[{"param":"nrh","values":[64]}]}`, "sweep.mode"},
		{"column without group", `"columns":[{"name":"ipc","group":"nope","metric":"sumIPC"}]`, `no workload group "nope"`},
		{"unknown metric", `"columns":[{"name":"ipc","group":"g","metric":"vibes"}]`, `unknown metric "vibes"`},
		{"norm without baseline", `"columns":[{"name":"n","group":"g","metric":"normWS"}]`, "baseline"},
		{"bad agg", `"columns":[{"name":"ipc","group":"g","metric":"sumIPC","agg":"median"}]`, `unknown aggregation "median"`},
		{"axis column without sweep", `"columns":[{"name":"NRH","axis":"nrh"}]`, `no sweep axis "nrh"`},
		{"axis column with group", `"sweep":{"axes":[{"param":"nrh","values":[64]}]},"columns":[{"name":"NRH","axis":"nrh","group":"g"}]`,
			"either axis or group"},
		{"periodicFactor with pacram", `"config":{"mitigation":"RFM","nrh":64,"pacram":{"module":"S6","factor":0.45},"periodicFactor":0.45}`,
			"periodicFactor: cannot be combined with a pacram operating point"},
		{"periodicFactor above one", `"sweep":{"axes":[{"param":"periodicFactor","values":[0.5,1.5]}]}`,
			"periodicFactor: must be in (0, 1]"},
		{"swept zero instructions", `"sweep":{"axes":[{"param":"instructions","values":[0,30000]}]}`,
			"instructions: must be positive"},
		{"red cell as one pacram value", `"config":{"mitigation":"RFM","nrh":64,"pacram":{"module":"H5","factor":0.18}}`,
			"cannot be refreshed at 0.18"},
		{"kept param not an axis", `"baseline":{"keep":["nrh"]},"sweep":{"axes":[{"param":"mitigation","values":["PARA"]}]}`,
			`baseline.keep[0]: no sweep axis "nrh"`},
		{"kept member pseudo-axis", `"baseline":{"keep":["member"]},"sweep":{"perMember":"g"}`,
			`baseline.keep[0]: no sweep axis "member"`},
		{"factor without module", `"sweep":{"axes":[{"param":"pacram.factor","values":[0.45]}]}`,
			"pacram.module and pacram.factor must be swept together"},
		{"module without factor", `"sweep":{"axes":[{"param":"pacram.module","values":["S6"]}]}`,
			"pacram.module and pacram.factor must be swept together"},
		{"pacram beside its halves", `"sweep":{"axes":[{"param":"pacram","values":[null]},{"param":"pacram.module","values":["S6"]},{"param":"pacram.factor","values":[0.45]}]}`,
			"sweep either pacram or pacram.module and pacram.factor"},
		{"unknown swept module", `"sweep":{"axes":[{"param":"pacram.module","values":["Z9"]},{"param":"pacram.factor","values":[0.45]}]}`,
			"sweep.axes[0].values[0]"},
		{"uncharacterized swept factor", `"sweep":{"axes":[{"param":"pacram.module","values":["S6"]},{"param":"pacram.factor","values":[0.5]}]}`,
			"sweep.axes[1].values[0]: factor 0.5 is not characterized"},
		{"ratioOfSums without baseline", `"columns":[{"name":"n","group":"g","metric":"sumIPC","agg":"ratioOfSums"}]`,
			"columns[0].agg: ratioOfSums divides by the baseline's sum"},
		{"ratioOfSums over a normalized metric", `"baseline":{},"columns":[{"name":"n","group":"g","metric":"normWS","agg":"ratioOfSums"}]`,
			`columns[0].agg: ratioOfSums sums a raw metric, and "normWS" is normalized already`},
		{"perMember unknown group", `"sweep":{"perMember":"nope","axes":[{"param":"nrh","values":[64]}]}`,
			`sweep.perMember: no workload group "nope"`},
		{"member column without perMember", `"columns":[{"name":"w","axis":"member"}]`, `no sweep axis "member"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Overlay the patch onto the base JSON object.
			var obj map[string]json.RawMessage
			if err := json.Unmarshal([]byte(base), &obj); err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(tc.patch, "{") {
				obj = nil
				if err := json.Unmarshal([]byte(tc.patch), &obj); err != nil {
					t.Fatal(err)
				}
			} else {
				var kv map[string]json.RawMessage
				if err := json.Unmarshal([]byte("{"+tc.patch+"}"), &kv); err != nil {
					t.Fatal(err)
				}
				for k, v := range kv {
					obj[k] = v
				}
			}
			data, err := json.Marshal(obj)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Parse(data)
			if err == nil {
				err = s.Validate()
			}
			if err == nil {
				t.Fatalf("broken spec validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestZipSweep checks lockstep expansion: two 2-value axes give two
// rows, not four.
func TestZipSweep(t *testing.T) {
	spec := `{
		"name": "zip",
		"sim": {"instructions": 4000, "warmup": 400},
		"config": {"mitigation": "PARA", "nrh": 64},
		"workloads": [{"name": "g", "members": [{"cores": [{"workload": "453.povray"}]}]}],
		"sweep": {"mode": "zip", "axes": [
			{"param": "mitigation", "values": ["PARA", "RFM"]},
			{"param": "nrh", "values": [1024, 64]}
		]},
		"columns": [
			{"name": "mechanism", "axis": "mitigation"},
			{"name": "NRH", "axis": "nrh"},
			{"name": "ipc", "group": "g", "metric": "sumIPC"}
		]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Run(s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("zip sweep produced %d rows, want 2", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "PARA" || tbl.Rows[0][1] != "1024" {
		t.Errorf("row 0 = %v, want PARA/1024", tbl.Rows[0])
	}
	if tbl.Rows[1][0] != "RFM" || tbl.Rows[1][1] != "64" {
		t.Errorf("row 1 = %v, want RFM/64", tbl.Rows[1])
	}
}

// TestChannelsAxis sweeps the memory-channel count end to end: a
// bandwidth-bound core must speed up when a second channel is added,
// and a bad channel count must fail validation naming the field.
func TestChannelsAxis(t *testing.T) {
	spec := `{
		"name": "channels",
		"sim": {"instructions": 4000, "warmup": 400},
		"workloads": [{"name": "g", "members": [{"cores": [{"workload": "470.lbm"}, {"workload": "429.mcf"}]}]}],
		"sweep": {"axes": [{"param": "memory.channels", "values": [1, 2]}]},
		"columns": [
			{"name": "channels", "axis": "memory.channels"},
			{"name": "ipc", "group": "g", "metric": "sumIPC"}
		]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Run(s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tbl.Rows))
	}
	one, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	two, _ := strconv.ParseFloat(tbl.Rows[1][1], 64)
	if two <= one {
		t.Errorf("second channel did not help a bandwidth-bound pair: %g -> %g", one, two)
	}

	bad := `{
		"name": "channels-bad",
		"sim": {"instructions": 4000},
		"memory": {"channels": 3},
		"workloads": [{"name": "g", "members": [{"cores": [{"workload": "429.mcf"}]}]}],
		"columns": [{"name": "ipc", "group": "g", "metric": "sumIPC"}]
	}`
	s, err = Parse([]byte(bad))
	if err != nil {
		t.Fatal(err)
	}
	err = s.Validate()
	if err == nil || !strings.Contains(err.Error(), "Channels") || !strings.Contains(err.Error(), "3") {
		t.Errorf("invalid channel count error %v does not name the field and value", err)
	}
}

// TestAttackerStrideRevalidatedPerChannelCount: an unset attacker
// stride resolves to the cell geometry's row stride, which grows with
// the channel count — so a footprint that holds at one channel can
// overflow at four, and that must surface at validation time with a
// precise path, not mid-sweep.
func TestAttackerStrideRevalidatedPerChannelCount(t *testing.T) {
	spec := `{
		"name": "stride-overflow",
		"sim": {"instructions": 4000},
		"workloads": [{"name": "g", "members": [{"cores": [
			{"attacker": {"sides": 15, "footprintMB": 8}}
		]}]}],
		"sweep": {"axes": [{"param": "memory.channels", "values": [1, 4]}]},
		"columns": [
			{"name": "channels", "axis": "memory.channels"},
			{"name": "ipc", "group": "g", "metric": "sumIPC"}
		]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	err = s.Validate()
	if err == nil {
		t.Fatal("a 31-aggressor-span attack at a 4-channel (1MB) row stride fits no 8MB footprint; Validate passed")
	}
	for _, want := range []string{"attacker", "footprint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestMemoryAxis sweeps a geometry parameter end to end.
func TestMemoryAxis(t *testing.T) {
	spec := `{
		"name": "geom",
		"sim": {"instructions": 4000, "warmup": 400},
		"config": {"mitigation": "PARA", "nrh": 64},
		"workloads": [{"name": "g", "members": [{"cores": [{"workload": "429.mcf"}]}]}],
		"sweep": {"axes": [{"param": "memory.banksPerGroup", "values": [2, 4]}]},
		"columns": [
			{"name": "banksPerGroup", "axis": "memory.banksPerGroup"},
			{"name": "ipc", "group": "g", "metric": "sumIPC"}
		]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Run(s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tbl.Rows))
	}
	if tbl.Rows[0][1] == tbl.Rows[1][1] {
		t.Errorf("doubling banks per group left IPC unchanged (%s)", tbl.Rows[0][1])
	}
}

// TestFigureVocabulary compiles small specs in the terms Fig. 16 and
// the run table use. Fig. 16's shape: factor 1.0 runs without PaCRAM
// and so is the kept baseline's own cell, and H5 cannot run at 0.18,
// so its point is dropped. The run table's shape: a per-member row
// expansion adds rows but no cells.
func TestFigureVocabulary(t *testing.T) {
	const fig16 = `{
		"name": "latency",
		"sim": {"instructions": 4000, "warmup": 400},
		"baseline": {"keep": ["mitigation", "nrh"]},
		"workloads": [{"name": "g", "members": [{"cores": [{"workload": "429.mcf"}]}, {"cores": [{"workload": "470.lbm"}]}]}],
		"sweep": {"axes": [
			{"param": "pacram.module", "values": ["H5", "M2"]},
			{"param": "mitigation", "values": ["RFM"]},
			{"param": "nrh", "values": [64]},
			{"param": "pacram.factor", "values": [1.0, 0.45, 0.18]}
		]},
		"columns": [
			{"name": "module", "axis": "pacram.module"},
			{"name": "factor", "axis": "pacram.factor"},
			{"name": "normIPC", "group": "g", "metric": "sumIPC", "agg": "ratioOfSums"}
		]
	}`
	s, err := Parse([]byte(fig16))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// H5: 1.0 and 0.45; M2: 1.0, 0.45 and 0.18. Per member: the
	// baseline (RFM at 64, shared by both 1.0 rows) and three PaCRAM
	// cells.
	if p.Rows() != 5 || p.Jobs() != 2*4 {
		t.Fatalf("plans %d rows / %d jobs, want 5 / 8", p.Rows(), p.Jobs())
	}
	for _, row := range p.rows {
		if row.display["pacram.factor"] != 1.0 {
			continue
		}
		for _, mc := range row.groups[0] {
			if mc.cell != mc.base {
				t.Errorf("factor 1.0 cell %d is not its baseline %d", mc.cell, mc.base)
			}
		}
	}

	run, err := FigureSpec("run", exp.DefaultSysOptions())
	if err != nil {
		t.Fatal(err)
	}
	perMember, err := run.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run.Sweep.PerMember = ""
	run.Columns = run.Columns[1:] // the member column
	grouped, err := run.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if perMember.Jobs() != grouped.Jobs() || perMember.Rows() != 6*grouped.Rows() {
		t.Errorf("per-member run plans %d jobs / %d rows; grouped %d / %d", perMember.Jobs(), perMember.Rows(), grouped.Jobs(), grouped.Rows())
	}
}

// TestFigureSpecRebuildsRunPairs: -mitigations and -nrh rebuild the
// run table's zipped pairs behind its unprotected first pair.
func TestFigureSpecRebuildsRunPairs(t *testing.T) {
	o := exp.DefaultSysOptions()
	o.Mitigations = []string{"RFM", "PRAC"}
	o.NRHs = []int{128}
	s, err := FigureSpec("run", o)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ax := range s.Sweep.Axes {
		for i, raw := range ax.Values {
			label := ""
			if ax.Labels != nil {
				label = "/" + ax.Labels[i]
			}
			got = append(got, string(raw)+label)
		}
	}
	want := []string{`"None"`, `"RFM"`, `"PRAC"`, `1024/-`, `128/128`, `128/128`}
	if !slices.Equal(got, want) {
		t.Errorf("run axes %v, want %v", got, want)
	}
}

// TestPaperScaleFitsPlanBound compiles Fig. 16 at the paper's full
// scale, 62 workloads and NRH 1K..32, which the plan bound must admit.
func TestPaperScaleFitsPlanBound(t *testing.T) {
	o := exp.DefaultSysOptions()
	o.Workloads = nil
	for _, w := range trace.Catalog() {
		o.Workloads = append(o.Workloads, w.Name)
	}
	o.NRHs = []int{1024, 512, 256, 128, 64, 32}
	s, err := FigureSpec("fig16", o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepBound: a spec of about 1 KB with a dozen 4-value axes
// would expand into 4^12 (16.7M) points; Compile must reject it from
// the axis lengths, naming the product, before building any point.
func TestSweepBound(t *testing.T) {
	s, err := Parse([]byte(oversizedSweep))
	if err != nil {
		t.Fatal(err)
	}
	err = s.Validate()
	if err == nil {
		t.Fatal("a 4^12-point sweep validated")
	}
	for _, want := range []string{"sweep: 4 × 4 × 4 × 4 × 4 × 4 × 4 × 4 × 4 × 4 × 4 × 4 points × 1 members", "plan bound"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestPaperScaleFitsCellBound compiles every paper figure at the
// paper's full scale (62 workloads, 60 mixes, 100M instructions per
// core after a 10M warmup), whose cells the per-cell bounds must admit.
func TestPaperScaleFitsCellBound(t *testing.T) {
	o := exp.DefaultSysOptions()
	o.Workloads = nil
	for _, w := range trace.Catalog() {
		o.Workloads = append(o.Workloads, w.Name)
	}
	o.MixCount = 60
	o.Instructions, o.Warmup = 100_000_000, 10_000_000
	o.NRHs = []int{1024, 512, 256, 128, 64, 32}
	for _, id := range figureIDs() {
		s, err := FigureSpec(id, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// TestCellBound: a cell whose banks or simulated instructions exceed
// the per-cell bounds is rejected at compile time, naming the product,
// before anything is allocated for it.
func TestCellBound(t *testing.T) {
	for _, c := range []struct {
		name, patch, want string
	}{
		{"channels", `"sim": {"instructions": 1000}, "memory": {"channels": 1048576}`,
			"memory: 1048576 channels × 2 ranks × 8 bank groups × 2 banks is over the per-cell bound of 4096 banks"},
		{"instructions", `"sim": {"instructions": 1000000000000000}`,
			`member "429.mcf": 1 cores × (1000000000000000 instructions + 0 warmup) is over the per-cell bound of 17179869184 simulated instructions`},
		{"overflow", `"sim": {"instructions": 9223372036854775808, "warmup": 9223372036854775808}`,
			"1 cores × (9223372036854775808 instructions + 9223372036854775808 warmup) is over the per-cell bound"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := Parse([]byte(`{"name": "probe", ` + c.patch + `,
				"workloads": [{"name": "g", "members": [{"cores": [{"workload": "429.mcf"}]}]}],
				"columns": [{"name": "ipc", "group": "g", "metric": "sumIPC"}]}`))
			if err != nil {
				t.Fatal(err)
			}
			err = s.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v does not contain %q", err, c.want)
			}
		})
	}
	// A cell at the bank bound exactly still compiles.
	s, err := Parse([]byte(`{"name": "probe", "sim": {"instructions": 1000},
		"memory": {"channels": 16, "ranks": 16},
		"workloads": [{"name": "g", "members": [{"cores": [{"workload": "429.mcf"}, {"workload": "470.lbm"}]}]}],
		"columns": [{"name": "ipc", "group": "g", "metric": "sumIPC"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("16 channels × 16 ranks × 16 banks (the bound exactly): %v", err)
	}
}

// oversizedSweep is a small spec whose twelve axes multiply past the
// plan bound.
const oversizedSweep = `{
	"name": "oversized",
	"sim": {"instructions": 1000},
	"workloads": [{"name": "g", "members": [{"cores": [{"workload": "429.mcf"}]}]}],
	"sweep": {"axes": [
		{"param": "mitigation", "values": ["PARA", "RFM", "PRAC", "Hydra"]},
		{"param": "nrh", "values": [64, 128, 256, 512]},
		{"param": "instructions", "values": [1000, 2000, 3000, 4000]},
		{"param": "warmup", "values": [0, 100, 200, 300]},
		{"param": "seed", "values": [1, 2, 3, 4]},
		{"param": "memory.channels", "values": [1, 2, 4, 8]},
		{"param": "memory.ranks", "values": [1, 2, 4, 8]},
		{"param": "memory.rows", "values": [1024, 2048, 4096, 8192]},
		{"param": "memory.blastRadius", "values": [1, 2, 3, 4]},
		{"param": "memory.trfcScale", "values": [1, 1.45, 2.1, 3.05]},
		{"param": "memory.cpuFreqGHz", "values": [2, 3, 4, 5]},
		{"param": "periodicFactor", "values": [1, 0.81, 0.64, 0.45]}
	]},
	"columns": [{"name": "ipc", "group": "g", "metric": "sumIPC"}]
}`
