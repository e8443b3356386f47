package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"pacram/internal/exp"
	"pacram/internal/scenario"
)

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
		ropt := scenario.RunOptions{Parallel: 2, CacheDir: dir, Progress: &progress}
		tbl, err := runExperiment("takeaways", exp.DefaultSysOptions(), ropt)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Fprint(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), golden) {
			t.Errorf("run %d: table differs from takeaways.golden:\n%s", run, out.Bytes())
		}
		p := progress.String()
		// Every characterization "jobs done" line reports its cached
		// count on the warm run and none on the cold one; fig18's is
		// all cached on both.
		done, fig18 := 0, 0
		for _, line := range strings.Split(strings.ReplaceAll(p, "\r", "\n"), "\n") {
			if !strings.Contains(line, "jobs done") {
				continue
			}
			n := strings.Fields(line)[1]
			allCached := strings.Contains(line, "("+n+" cached)")
			switch {
			case strings.HasPrefix(line, "takeaways:"):
				done++
				if allCached != wantCached {
					t.Errorf("run %d: %q: all points cached = %v, want %v", run, strings.TrimSpace(line), allCached, wantCached)
				}
			case strings.HasPrefix(line, "fig18:"):
				fig18++
				if !allCached {
					t.Errorf("run %d: %q: fig18 not served from fig17's cells", run, strings.TrimSpace(line))
				}
			}
		}
		if done == 0 || fig18 != 1 {
			t.Fatalf("run %d: %d takeaways and %d fig18 finished-run progress lines: %q", run, done, fig18, p)
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
