package scenario

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"pacram/internal/exp"
	"pacram/internal/mitigation"
	"pacram/internal/trace"
)

// The paper's system figures, and cmd/simulate's per-workload run
// table, as specs. They stay out of Catalog(), which the sweep service
// compiles and serves as its scenario list; fig17 predates them there
// and keeps its catalog entry.
//
//go:embed figures/*.json catalog/fig17.json
var figuresFS embed.FS

// figureFiles maps each figure id to its embedded spec.
var figureFiles = map[string]string{
	"fig3":  "figures/fig3.json",
	"fig16": "figures/fig16.json",
	"fig17": "catalog/fig17.json",
	"fig18": "figures/fig18.json",
	"fig19": "figures/fig19.json",
	"run":   "figures/run.json",
}

// figureIDs lists the paper figures FigureSpec knows, sorted.
func figureIDs() []string {
	ids := make([]string, 0, len(figureFiles))
	for id := range figureFiles {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// FigureSpec returns paper figure id ("fig3", "fig16", "fig17",
// "fig18", "fig19", or "run", the per-workload detail table) rescaled
// to o, the options cmd/simulate's flags fill: the sim budgets and
// seed, the mitigation and nrh axes (when o names any), the "singles"
// group's workloads (when o names any), the "mixes" group as the first
// o.MixCount catalog mixes (fig19's "mix" group keeps its one mix, and
// needs o.MixCount ≥ 1), and the channel and rank counts (when
// nonzero). Axes and groups a figure lacks are left alone. run zips
// its mitigation and nrh axes into pairs: its first, unprotected pair
// stays, and the rest are rebuilt as every mechanism × NRH when o
// names either. How the spec executes (workers, cache, progress) is
// the caller's RunOptions.
func FigureSpec(id string, o exp.SysOptions) (*Spec, error) {
	path, ok := figureFiles[id]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown figure %q (have: %s)", id, strings.Join(figureIDs(), " "))
	}
	data, err := fs.ReadFile(figuresFS, path)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading %s: %w", path, err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}

	s.Sim.Instructions, s.Sim.Warmup, s.Sim.Seed = o.Instructions, o.Warmup, o.Seed
	if o.Channels != 0 || o.Ranks != 0 {
		if s.Memory == nil {
			s.Memory = &MemParams{}
		}
		s.Memory.Channels, s.Memory.Ranks = o.Channels, o.Ranks
	}
	if s.Sweep.Mode == "zip" { // run
		rezip(s.Sweep, o)
	} else {
		for i := range s.Sweep.Axes { // every figure sweeps
			ax := &s.Sweep.Axes[i]
			switch {
			case ax.Param == "mitigation" && len(o.Mitigations) > 0:
				ax.Values = rawValues(o.Mitigations)
			case ax.Param == "nrh" && len(o.NRHs) > 0:
				ax.Values = rawValues(o.NRHs)
			}
		}
	}
	for i := range s.Workloads {
		g := &s.Workloads[i]
		switch g.Name {
		case "singles":
			if len(o.Workloads) > 0 {
				g.Members = g.Members[:0]
				for _, w := range o.Workloads {
					g.Members = append(g.Members, Member{Cores: []CoreSpec{{Workload: w}}})
				}
			}
		case "mix": // fig19's single mix: the first catalog mix
			if o.MixCount < 1 {
				return nil, fmt.Errorf("scenario: %s needs at least one mix", id)
			}
		case "mixes":
			mixes := trace.Mixes()
			g.Members = g.Members[:0]
			for _, m := range mixes[:min(max(o.MixCount, 0), len(mixes))] {
				g.Members = append(g.Members, Member{Mix: m.Name})
			}
		}
	}
	return s, nil
}

// ClaimFigures runs Figs. 17 and 18 at o's scale narrowed to RFM at
// NRH 64, the point the paper's system claims read (exp.Takeaways T7
// and T8, exp.ArtifactClaims C2.1 and C2.2), under ropt. The two
// figures plan the same cells, so on one store (ropt.Store, which
// every command opens once per process) fig18 is served from fig17's.
func ClaimFigures(o exp.SysOptions, ropt RunOptions) (fig17, fig18 *exp.Table, err error) {
	o.Mitigations, o.NRHs = []string{mitigation.NameRFM}, []int{64}
	run := func(id string) (*exp.Table, error) {
		s, err := FigureSpec(id, o)
		if err != nil {
			return nil, err
		}
		return Run(s, ropt)
	}
	if fig17, err = run("fig17"); err != nil {
		return nil, nil, err
	}
	fig18, err = run("fig18")
	return fig17, fig18, err
}

// rezip rebuilds run's zipped mitigation and nrh axes when o names
// mechanisms or thresholds: the first pair (the unprotected row)
// stays, then one pair per mechanism × NRH, mechanism outermost. An
// unnamed side defaults to all five mechanisms or the default
// thresholds. Labeled axes label each new value with itself.
func rezip(sw *Sweep, o exp.SysOptions) {
	mechs, nrhs := o.Mitigations, o.NRHs
	if len(mechs) == 0 && len(nrhs) == 0 {
		return
	}
	if len(mechs) == 0 {
		mechs = mitigation.AllNames()
	}
	if len(nrhs) == 0 {
		nrhs = exp.DefaultSysOptions().NRHs
	}
	for i := range sw.Axes {
		ax := &sw.Axes[i]
		ax.Values, ax.Labels = ax.Values[:1], ax.Labels[:min(len(ax.Labels), 1)]
		for _, m := range mechs {
			for _, n := range nrhs {
				var v any = m
				if ax.Param == "nrh" {
					v = n
				}
				raw, _ := json.Marshal(v) // a string or an int
				ax.Values = append(ax.Values, raw)
				if ax.Labels != nil {
					ax.Labels = append(ax.Labels, fmt.Sprint(v))
				}
			}
		}
	}
}

// rawValues encodes a list of strings or ints as axis values; neither
// can fail to marshal.
func rawValues[T string | int](vs []T) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i], _ = json.Marshal(v)
	}
	return out
}
