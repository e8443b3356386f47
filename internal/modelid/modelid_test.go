package modelid

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestModelIdentityCurrent fails while the generated constant lags the
// sources it names: a model change must regenerate it, or the store
// would serve cells the old model computed.
func TestModelIdentityCurrent(t *testing.T) {
	id, _, err := Compute(".")
	if err != nil {
		t.Fatal(err)
	}
	if id != Model {
		t.Fatalf("modelid.Model = %q, but the model sources hash to %q: run go generate ./internal/modelid", Model, id)
	}
}

// TestClosureFromImports: the covered packages are the import closure
// of the roots, which reaches the simulator's and the device model's
// dependencies but no glue, store or front end, and not this package.
func TestClosureFromImports(t *testing.T) {
	_, pkgs, err := Compute(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"internal/sim", "internal/characterize", "internal/memsys", "internal/chips", "internal/xrand"} {
		if !slices.Contains(pkgs, p) {
			t.Errorf("closure %v lacks %s", pkgs, p)
		}
	}
	for _, p := range []string{"internal/modelid", "internal/runner", "internal/scenario", "internal/exp", "internal/service"} {
		if slices.Contains(pkgs, p) {
			t.Errorf("closure %v includes %s", pkgs, p)
		}
	}
}

// TestComputeCoversEveryByte: editing any byte of a covered source
// changes the identity, in a copy of the closure.
func TestComputeCoversEveryByte(t *testing.T) {
	id, pkgs, err := Compute(".")
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	copyFile(t, filepath.Join(src, "go.mod"), filepath.Join(dst, "go.mod"))
	for _, p := range pkgs {
		srcs, err := sources(src, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range srcs {
			copyFile(t, filepath.Join(src, f), filepath.Join(dst, f))
		}
	}
	if got, _, err := Compute(dst); err != nil || got != id {
		t.Fatalf("copy of the closure: Compute = %q, %v; want %q", got, err, id)
	}
	bank := filepath.Join(dst, "internal", "memsys", "bank.go")
	data, err := os.ReadFile(bank)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bank, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _, err := Compute(dst); err != nil || got == id {
		t.Fatalf("after a one-byte edit to memsys/bank.go: Compute = %q, %v; want an identity other than %q", got, err, id)
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
