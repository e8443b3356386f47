package scenario

import (
	"embed"
	"fmt"
	"io/fs"
	"sort"
	"strings"
)

// The built-in catalog: scenarios the paper never ran, exercising the
// spec surface (synthetics, attackers, phased cores, memory axes),
// plus the paper's Fig. 17 (see FigureSpec).
//
//go:embed catalog/*.json
var catalogFS embed.FS

// Catalog parses the built-in scenarios, sorted by name. The specs are
// parsed fresh on each call so callers may mutate them (e.g. rescale
// instruction budgets) without aliasing.
func Catalog() ([]*Spec, error) {
	entries, err := fs.ReadDir(catalogFS, "catalog")
	if err != nil {
		return nil, fmt.Errorf("scenario: reading catalog: %w", err)
	}
	specs := make([]*Spec, 0, len(entries))
	for _, e := range entries {
		data, err := fs.ReadFile(catalogFS, "catalog/"+e.Name())
		if err != nil {
			return nil, fmt.Errorf("scenario: reading catalog/%s: %w", e.Name(), err)
		}
		s, err := Parse(data)
		if err != nil {
			return nil, fmt.Errorf("scenario: catalog/%s: %w", e.Name(), err)
		}
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}

// ByName finds a built-in scenario. Each lives in catalog/<name>.json,
// so only that one file is parsed; the full catalog is read only to
// list the names when there is no such scenario.
func ByName(name string) (*Spec, error) {
	if fs.ValidPath(name) && !strings.Contains(name, "/") {
		if data, err := fs.ReadFile(catalogFS, "catalog/"+name+".json"); err == nil {
			s, err := Parse(data)
			if err != nil {
				return nil, fmt.Errorf("scenario: catalog/%s.json: %w", name, err)
			}
			if s.Name == name {
				return s, nil
			}
		}
	}
	specs, err := Catalog()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return nil, fmt.Errorf("scenario: unknown built-in scenario %q (have: %s)", name, strings.Join(names, " "))
}
