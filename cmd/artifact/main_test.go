package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestArtifactGolden runs the command at its default scale, cold and
// quiet, and compares the four verdicts with the golden output; CI runs
// the same check on the built command.
func TestArtifactGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/artifact.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-cache", "", "-quiet"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("output differs from testdata/artifact.golden:\n%s", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("quiet run wrote to stderr: %q", stderr.String())
	}
}

// TestArtifactRejectsBadScale: a scale no measurement can run at exits
// 1 with an error naming the flag, before any cell runs (progress is
// on, and no figure reports a cell), and prints no verdict.
func TestArtifactRejectsBadScale(t *testing.T) {
	for _, rows := range []string{"0", "-1"} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"-cache", "", "-rows", rows, "-insts", "2000"}, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "-rows") {
			t.Errorf("-rows %s: exit code %d, stderr %q; want 1 and an error naming -rows", rows, code, stderr.String())
		}
		if strings.Contains(stderr.String(), "fig17") {
			t.Errorf("-rows %s: simulated Fig. 17 cells before rejecting the scale: %q", rows, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-rows %s: printed %q", rows, stdout.String())
		}
	}
}
