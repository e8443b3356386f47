// Package modelid names the model a stored result was computed by.
//
// Model (generated into model.go) is a hash of the Go sources of every
// package that decides a simulation or characterization result: the
// module-local import closure of internal/sim and
// internal/characterize. The result store mixes it into every cell's
// address, so a change to the model misses every cell the old model
// computed, while a change anywhere else (the CLIs, the sweep service,
// the store itself) keeps them.
//
// The closure is derived from the import graph, never listed by hand,
// and this package lies outside it, so the hash never covers itself.
// After editing a package in the closure, regenerate the constant:
//
//	go generate ./internal/modelid
//
// TestModelIdentityCurrent fails with "run go generate" while it is
// stale.
package modelid

//go:generate go run ./gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// roots are the module-relative directories of the packages whose
// results the store caches: sim.Run's and the characterization
// model's. Everything they import from the module is hashed with them.
var roots = []string{"internal/sim", "internal/characterize"}

// Compute returns the model identity of the module containing dir
// (the nearest ancestor holding go.mod) and the module-relative
// directories of the packages it covers, sorted.
//
// The identity is the first 20 hex digits of a SHA-256 over the
// closure's non-test .go files in sorted module-relative path order;
// each file contributes its slash-separated path, a NUL, its length
// in decimal, a NUL and its bytes.
func Compute(dir string) (id string, pkgs []string, err error) {
	root, module, err := findModule(dir)
	if err != nil {
		return "", nil, err
	}
	seen := make(map[string]bool)
	var files []string
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		pkgs = append(pkgs, pkg)
		srcs, err := sources(root, pkg)
		if err != nil {
			return "", nil, err
		}
		for _, f := range srcs {
			files = append(files, f)
			imports, err := moduleImports(root, f, module)
			if err != nil {
				return "", nil, err
			}
			queue = append(queue, imports...)
		}
	}
	sort.Strings(files)
	sort.Strings(pkgs)

	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(f)))
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:20], pkgs, nil
}

// findModule walks up from dir to the directory holding go.mod and
// returns it with the module path that go.mod declares.
func findModule(dir string) (root, module string, err error) {
	root, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(mod), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					return root, strings.Trim(f[1], `"`), nil
				}
			}
			return "", "", fmt.Errorf("modelid: no module line in %s", filepath.Join(root, "go.mod"))
		}
		parent := filepath.Dir(root)
		if parent == root {
			return "", "", fmt.Errorf("modelid: no go.mod above %s", dir)
		}
		root = parent
	}
}

// sources lists a package's non-test .go files, module-relative.
func sources(root, pkg string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(root, filepath.FromSlash(pkg)))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			out = append(out, path.Join(pkg, name))
		}
	}
	return out, nil
}

// moduleImports returns the module-relative directories of the
// module-local packages that file imports.
func moduleImports(root, file, module string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, filepath.FromSlash(file)), nil, parser.ImportsOnly)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			return nil, err
		}
		if rel, ok := strings.CutPrefix(p, module+"/"); ok {
			out = append(out, rel)
		}
	}
	return out, nil
}
