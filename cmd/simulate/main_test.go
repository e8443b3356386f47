package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pacram/internal/exp"
	"pacram/internal/runner"
	"pacram/internal/runner/storetest"
	"pacram/internal/scenario"
)

// openRun opens one process's store the way realMain does and returns
// the options every experiment of that process runs under, with
// progress going to progress.
func openRun(t *testing.T, cacheDir, storeURL string, progress io.Writer) (exp.CharOptions, scenario.RunOptions) {
	t.Helper()
	store, err := runner.OpenStore(cacheDir, storeURL, 0)
	if err != nil {
		t.Fatal(err)
	}
	co := exp.DefaultCharOptions()
	co.Parallel, co.Store, co.Progress = 2, store, progress
	return co, scenario.RunOptions{Parallel: 2, Store: store, Progress: progress}
}

// doneLine is one finished-run progress line: the label, the jobs run
// and whether every one was served from the store.
type doneLine struct {
	label     string
	jobs      int
	allCached bool
}

// doneLines parses the "jobs done" lines out of progress output.
func doneLines(t *testing.T, progress string) []doneLine {
	t.Helper()
	var out []doneLine
	for _, line := range strings.Split(strings.ReplaceAll(progress, "\r", "\n"), "\n") {
		if !strings.Contains(line, "jobs done") {
			continue
		}
		f := strings.Fields(line)
		n, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("progress line %q: %v", line, err)
		}
		out = append(out, doneLine{strings.TrimSuffix(f[0], ":"), n, strings.Contains(line, "("+f[1]+" cached)")})
	}
	return out
}

// TestTakeawaysUseRunOptions: `-exp takeaways` runs T1-T6 under the
// command's -parallel, -cache and progress options, so a second run on
// the same cache directory serves every characterization point from
// it, and both runs print the golden table. T7/T8 read the Fig. 17 and
// 18 cells, which are the same cells, so even the cold run serves
// fig18 entirely from fig17's.
func TestTakeawaysUseRunOptions(t *testing.T) {
	golden, err := os.ReadFile("../../internal/exp/testdata/takeaways.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for run, wantCached := range []bool{false, true} {
		var progress, out bytes.Buffer
		co, ropt := openRun(t, dir, "", &progress)
		tbl, err := runExperiment("takeaways", exp.DefaultSysOptions(), co, ropt)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Fprint(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), golden) {
			t.Errorf("run %d: table differs from takeaways.golden:\n%s", run, out.Bytes())
		}
		// Every characterization "jobs done" line reports its cached
		// count on the warm run and none on the cold one; fig18's is
		// all cached on both.
		done, fig18 := 0, 0
		for _, l := range doneLines(t, progress.String()) {
			switch l.label {
			case "takeaways":
				done++
				if l.allCached != wantCached {
					t.Errorf("run %d: takeaways: %d points all cached = %v, want %v", run, l.jobs, l.allCached, wantCached)
				}
			case "fig18":
				fig18++
				if !l.allCached {
					t.Errorf("run %d: fig18: %d jobs not served from fig17's cells", run, l.jobs)
				}
			}
		}
		if done == 0 || fig18 != 1 {
			t.Fatalf("run %d: %d takeaways and %d fig18 finished-run progress lines: %q", run, done, fig18, progress.String())
		}
	}
}

// TestFiguresShareOneStore: with no cache directory, the experiments
// of one run still share the process's store, so fig18, which plans
// the cells fig17 just ran, is served from them entirely.
func TestFiguresShareOneStore(t *testing.T) {
	o := exp.DefaultSysOptions()
	o.Instructions, o.Warmup, o.MixCount = 8_000, 800, 1
	o.NRHs = []int{64}
	o.Mitigations = []string{"RFM"}
	o.Workloads = []string{"429.mcf"}
	var progress bytes.Buffer
	co, ropt := openRun(t, "", "", &progress)
	for _, id := range []string{"fig17", "fig18"} {
		if _, err := runExperiment(id, o, co, ropt); err != nil {
			t.Fatal(err)
		}
	}
	lines := doneLines(t, progress.String())
	if len(lines) != 2 || lines[0].label != "fig17" || lines[1].label != "fig18" {
		t.Fatalf("finished-run progress lines %+v, want fig17 then fig18", lines)
	}
	if lines[0].allCached {
		t.Errorf("cold fig17: all %d jobs cached", lines[0].jobs)
	}
	if !lines[1].allCached || lines[1].jobs != lines[0].jobs {
		t.Errorf("fig18 %+v: want all of fig17's %d jobs cached", lines[1], lines[0].jobs)
	}
}

// TestTakeawaysUseRemoteStore: `-exp takeaways -store URL` writes the
// T1-T6 characterization points to the origin, so another process on
// the same origin, with no cache directory of its own, is served every
// point from it.
func TestTakeawaysUseRemoteStore(t *testing.T) {
	originDir := t.TempDir()
	disk, err := runner.NewDiskStore(originDir)
	if err != nil {
		t.Fatal(err)
	}
	origin := storetest.ServeStore(t, disk)
	for run, wantCached := range []bool{false, true} {
		var progress bytes.Buffer
		co, ropt := openRun(t, "", origin, &progress)
		if _, err := runExperiment("takeaways", exp.DefaultSysOptions(), co, ropt); err != nil {
			t.Fatal(err)
		}
		points := 0
		for _, l := range doneLines(t, progress.String()) {
			if l.label != "takeaways" {
				continue
			}
			points += l.jobs
			if l.allCached != wantCached {
				t.Errorf("run %d: takeaways: %d points all cached = %v, want %v", run, l.jobs, l.allCached, wantCached)
			}
		}
		if points == 0 {
			t.Fatalf("run %d: no takeaways progress lines: %q", run, progress.String())
		}
		if run > 0 {
			continue
		}
		// The origin holds one characterization entry per point.
		files, err := filepath.Glob(filepath.Join(originDir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		char := 0
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var e struct{ Fingerprint string }
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if strings.Contains(e.Fingerprint, "char:v1:") {
				char++
			}
		}
		if char != points {
			t.Errorf("origin holds %d characterization entries, want the %d points T1-T6 ran", char, points)
		}
	}
}

const kernelLoop = "../../examples/traces/kernel-loop.trace"

// traceLine replays the example trace under PARA at NRH 64 and seed,
// and returns the printed line.
func traceLine(t *testing.T, seed uint64) string {
	t.Helper()
	o := exp.DefaultSysOptions()
	o.Mitigations, o.NRHs, o.Seed = []string{"PARA"}, []int{64}, seed
	var out bytes.Buffer
	if err := runTraceFile(&out, kernelLoop, o, false); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestTraceFileUsesSeed: -tracefile replays run at -seed, so PARA's
// random refreshes differ between seeds and repeat at one seed.
func TestTraceFileUsesSeed(t *testing.T) {
	one, two := traceLine(t, 1), traceLine(t, 2)
	if one == two {
		t.Errorf("seeds 1 and 2 print the same line: %q", one)
	}
	if again := traceLine(t, 1); again != one {
		t.Errorf("seed 1 printed %q, then %q", one, again)
	}
}

// TestTraceFileRejectsSeveralMitigations: one replay runs one
// mechanism, so naming two is an error rather than an unprotected run.
func TestTraceFileRejectsSeveralMitigations(t *testing.T) {
	o := exp.DefaultSysOptions()
	o.Mitigations = []string{"PARA", "RFM"}
	var out bytes.Buffer
	err := runTraceFile(&out, kernelLoop, o, false)
	if err == nil || !strings.Contains(err.Error(), "-mitigations") {
		t.Fatalf("err = %v, want one naming -mitigations", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before rejecting", out.String())
	}
}
