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
// it, and both runs print the golden table.
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
		if !strings.Contains(p, "takeaways:") {
			t.Fatalf("run %d: no takeaways progress: %q", run, p)
		}
		// Every "jobs done" line reports its cached count on the warm
		// run and none on the cold one.
		done := 0
		for _, line := range strings.Split(strings.ReplaceAll(p, "\r", "\n"), "\n") {
			if !strings.Contains(line, "jobs done") {
				continue
			}
			done++
			n := strings.Fields(line)[1]
			if got := strings.Contains(line, "("+n+" cached)"); got != wantCached {
				t.Errorf("run %d: %q: all points cached = %v, want %v", run, strings.TrimSpace(line), got, wantCached)
			}
		}
		if done == 0 {
			t.Fatalf("run %d: no finished-run progress line: %q", run, p)
		}
	}
}
