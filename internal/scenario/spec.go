// Package scenario is the declarative front door to the simulation
// engine: JSON experiment specs describing memory-system geometry,
// mitigation configuration, PaCRAM operating points, per-core
// workloads (catalog entries, parametric synthetics, adversarial
// attackers, phased streams) and sweep axes. A spec compiles into an
// internal/runner job matrix — with content-addressed keys, so cells
// shared between sweep points (baselines above all) run once — and
// assembles into the same Table type internal/exp renders, making
// every knob in sim.Options, memsys.Config and pacram.Config
// reachable without writing Go.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pacram/internal/trace"
)

// Spec is one declarative experiment.
type Spec struct {
	// Name identifies the scenario (used in errors, progress and the
	// default table ID).
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Table overrides the output table's ID and title.
	Table TableMeta `json:"table,omitzero"`
	// Sim sets the per-cell instruction budgets and seed.
	Sim SimParams `json:"sim"`
	// Memory overrides the scaled-down paper memory system
	// (sim.SmallMemConfig) field by field; nil keeps it as is.
	Memory *MemParams `json:"memory,omitempty"`
	// Config is the base mitigation configuration every sweep point
	// starts from.
	Config CellConfig `json:"config,omitzero"`
	// Baseline, when set, is the normalization cell: each member also
	// runs with this mitigation configuration (memory and sim
	// parameters inherited from the sweep point, unless Baseline.Memory
	// pins them), and norm* metrics divide by it.
	Baseline *BaselineSpec `json:"baseline,omitempty"`
	// Workloads are the named workload groups metrics aggregate over.
	Workloads []Group `json:"workloads"`
	// Sweep expands the spec into one output row per point; nil means
	// a single row at the base configuration.
	Sweep *Sweep `json:"sweep,omitempty"`
	// Columns define the output table, left to right.
	Columns []Column `json:"columns"`
}

// TableMeta names the output table.
type TableMeta struct {
	ID    string `json:"id,omitempty"`    // default: scenario name
	Title string `json:"title,omitempty"` // default: description
}

// SimParams are the per-cell simulation scale knobs.
type SimParams struct {
	Instructions uint64 `json:"instructions"`
	Warmup       uint64 `json:"warmup,omitempty"`
	// Seed drives every cell's workload streams and probabilistic
	// mitigations (0 = the paper driver default 0x51317).
	Seed      uint64 `json:"seed,omitempty"`
	MaxCycles uint64 `json:"maxCycles,omitempty"`
}

// MemParams override the base memory system (sim.SmallMemConfig: the
// paper's DDR5 system at 4096 rows/bank). Zero fields inherit.
type MemParams struct {
	// Profile selects a named device preset from ddr.Profiles() —
	// geometry and timing wholesale — before the explicit fields below
	// overlay it, so {"profile": "DDR4-2400", "rows": 4096} is the
	// DDR4 part scaled down. Empty inherits the base configuration
	// unchanged (the paper's DDR5 system), byte for byte.
	Profile string `json:"profile,omitempty"`
	// Channels sets the memory-channel count (each channel gets its
	// own controller, queues, refresh schedule and mitigation
	// instance; see memsys.System).
	Channels       int     `json:"channels,omitempty"`
	Ranks          int     `json:"ranks,omitempty"`
	BankGroups     int     `json:"bankGroups,omitempty"`
	BanksPerGroup  int     `json:"banksPerGroup,omitempty"`
	Rows           int     `json:"rows,omitempty"`
	Columns        int     `json:"columns,omitempty"`
	MOPWidth       int     `json:"mopWidth,omitempty"`
	BlastRadius    int     `json:"blastRadius,omitempty"`
	ReadQueue      int     `json:"readQueue,omitempty"`
	WriteQueue     int     `json:"writeQueue,omitempty"`
	CPUFreqGHz     float64 `json:"cpuFreqGHz,omitempty"`
	RefreshEnabled *bool   `json:"refreshEnabled,omitempty"`
	// TRFCScale multiplies tRFC (the refresh service time), modeling
	// higher-density chips (x1.45 per density doubling).
	TRFCScale float64 `json:"trfcScale,omitempty"`
}

// CellConfig is the mitigation side of a cell.
type CellConfig struct {
	// Mitigation is ""/"None" for the unprotected baseline or one of
	// the five mechanisms.
	Mitigation string `json:"mitigation,omitempty"`
	// NRH is the RowHammer threshold the mechanism is configured for.
	NRH int `json:"nrh,omitempty"`
	// PaCRAM, when set, wraps the mechanism with partial charge
	// restoration at the given module/factor operating point.
	PaCRAM *PaCRAMSpec `json:"pacram,omitempty"`
	// PeriodicExtension additionally reduces periodic-refresh latency
	// (Appendix B).
	PeriodicExtension bool `json:"periodicExtension,omitempty"`
	// PeriodicFactor, when set, cuts the restoration portion of every
	// periodic refresh to this fraction of nominal tRAS, with no
	// PaCRAM involved (the Appendix B / Fig. 19 sweep; see
	// sim.Options.PeriodicFactor). Must be in (0, 1]; 1 is nominal.
	PeriodicFactor float64 `json:"periodicFactor,omitempty"`
}

// BaselineSpec is the normalization cell configuration.
type BaselineSpec struct {
	CellConfig
	// Memory, when set, pins memory parameters for the baseline run on
	// top of the sweep point's (e.g. refreshEnabled=false for a
	// refresh-free reference) so swept memory axes still share one
	// deduplicated baseline cell.
	Memory *MemParams `json:"memory,omitempty"`
	// Keep names sweep axes whose point value the baseline keeps. The
	// baseline otherwise takes no mitigation-side axis (mitigation, nrh,
	// pacram, ...), so {"keep": ["mitigation", "nrh"]} normalizes each
	// point to the same mechanism and threshold without PaCRAM.
	Keep []string `json:"keep,omitempty"`
}

// PaCRAMSpec names a PaCRAM operating point; the concrete config is
// derived per cell from the module's characterization data and the
// cell's NRH.
type PaCRAMSpec struct {
	// Label is the display name in axis columns.
	Label string `json:"label,omitempty"`
	// Module is a chips registry ID (e.g. "H5", "M2", "S6").
	Module string `json:"module"`
	// Factor is the reduced restoration latency as a fraction of
	// nominal tRAS; must be one of the characterized factors.
	Factor float64 `json:"factor"`
}

// Group is a named set of workload members; metric columns aggregate
// over a group's members.
type Group struct {
	Name    string   `json:"name"`
	Members []Member `json:"members"`
}

// Member is one multi-programmed workload (one simulation cell per
// sweep point): either a catalog mix or an explicit core list.
type Member struct {
	Name string `json:"name,omitempty"`
	// Mix names one of the generated four-core mixes (mix00..mix59).
	Mix string `json:"mix,omitempty"`
	// Cores lists one workload per simulated core.
	Cores []CoreSpec `json:"cores,omitempty"`
}

// CoreSpec is one core's workload: exactly one of Workload, Synthetic,
// Attacker, Trace or Phases.
type CoreSpec struct {
	// Name labels phased workloads (optional elsewhere).
	Name string `json:"name,omitempty"`
	// Workload names a catalog entry.
	Workload string `json:"workload,omitempty"`
	// Override tweaks the named catalog entry's parameters.
	Override *SpecOverride `json:"override,omitempty"`
	// Synthetic is a fully parametric workload.
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
	// Attacker is an adversarial hammer generator.
	Attacker *AttackerSpec `json:"attacker,omitempty"`
	// Trace replays an external memory-access trace.
	Trace *TraceSpec `json:"trace,omitempty"`
	// Phases cycle multiple synthetic behaviours on one core.
	Phases []PhaseSpec `json:"phases,omitempty"`
}

// TraceSpec replays an external memory-access trace on one core,
// cyclically when the instruction budget outruns it. Inline embeds
// the text form in the spec itself — self-contained, so the spec
// ships whole to fabric workers and catalog entries carry their
// traces with them. A spec file may give Path instead, a trace file
// in either format (text or binary, auto-detected), which LoadFile
// turns into Inline; a spec with a Path left fails to compile.
// Loop > 0 replays only the trace's first Loop records. Identity is
// content-addressed: the digest of the records' canonical binary
// encoding goes into the job key, so a text trace, its binary
// re-encoding and an inline paste of the same records all collapse
// onto one cell.
type TraceSpec struct {
	// Name labels the workload in tables ("" derives one from the path
	// when LoadFile inlines it, else from the digest).
	Name string `json:"name,omitempty"`
	// Path is a trace file; LoadFile resolves a relative path against
	// the spec file's directory.
	Path string `json:"path,omitempty"`
	// Inline is the text form embedded directly in the spec.
	Inline string `json:"inline,omitempty"`
	// Loop truncates replay to the first Loop records (0 = all).
	Loop int `json:"loop,omitempty"`
}

// SyntheticSpec mirrors trace.Spec with a JSON-friendly pattern name.
type SyntheticSpec struct {
	Name        string  `json:"name"`
	Pattern     string  `json:"pattern"` // stream | random | zipf | mixed
	BubbleMean  int     `json:"bubbleMean"`
	FootprintMB int     `json:"footprintMB"`
	BurstLen    int     `json:"burstLen,omitempty"`
	WriteFrac   float64 `json:"writeFrac,omitempty"`
	ZipfTheta   float64 `json:"zipfTheta,omitempty"`
}

// SpecOverride patches individual catalog-spec fields.
type SpecOverride struct {
	Name        *string  `json:"name,omitempty"`
	Pattern     *string  `json:"pattern,omitempty"`
	BubbleMean  *int     `json:"bubbleMean,omitempty"`
	FootprintMB *int     `json:"footprintMB,omitempty"`
	BurstLen    *int     `json:"burstLen,omitempty"`
	WriteFrac   *float64 `json:"writeFrac,omitempty"`
	ZipfTheta   *float64 `json:"zipfTheta,omitempty"`
}

// AttackerSpec mirrors trace.AttackSpec.
type AttackerSpec struct {
	Name  string `json:"name,omitempty"`
	Sides int    `json:"sides,omitempty"`
	// StrideKB is the aggressor spacing. Unset (0) resolves per cell
	// to the cell geometry's row stride — one row per stride at any
	// channel count (256KB on the paper's single-channel system).
	StrideKB    int `json:"strideKB,omitempty"`
	Bubbles     int `json:"bubbles,omitempty"`
	VictimEvery int `json:"victimEvery,omitempty"`
	FootprintMB int `json:"footprintMB,omitempty"`
	// OpenRowReads issues row-press-style same-row reads after every
	// aggressor activation — long open-row windows with few tracked
	// activations (see trace.AttackSpec.OpenRowReads).
	OpenRowReads int `json:"openRowReads,omitempty"`
	// BurstAccesses and RestBubbles shape the hammer into bursts
	// separated by quiet windows aimed at tracker reset boundaries
	// (PRAC counter resets, Graphene/Hydra estimation windows).
	BurstAccesses int `json:"burstAccesses,omitempty"`
	RestBubbles   int `json:"restBubbles,omitempty"`
}

// PhaseSpec is one leg of a phased core: a catalog or synthetic
// workload that runs for Accesses memory accesses before the stream
// moves on (cycling).
type PhaseSpec struct {
	Workload  string         `json:"workload,omitempty"`
	Override  *SpecOverride  `json:"override,omitempty"`
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
	Accesses  int            `json:"accesses"`
}

// Sweep expands axes into output rows.
type Sweep struct {
	// Mode is "product" (default: full cross product, rightmost axis
	// fastest) or "zip" (axes advance in lockstep; equal lengths).
	Mode string `json:"mode,omitempty"`
	Axes []Axis `json:"axes"`
	// PerMember names a workload group whose members each get their
	// own block of rows (member outermost, then the sweep points):
	// metric columns over that group read the row's one member, and
	// the column axis "member" echoes its name. No cell is added.
	PerMember string `json:"perMember,omitempty"`
}

// Axis sweeps one parameter. Values are typed per parameter: strings
// for "mitigation", integers for "nrh", PaCRAM specs or null for
// "pacram", and so on (see axis parsing in compile.go for the full
// parameter list). "pacram.module" (chips IDs) and "pacram.factor"
// (characterized factors) sweep one operating point's two halves as
// separate axes, and must be swept together: factor 1.0 is nominal
// and runs without PaCRAM, and a point whose module cannot run its
// factor (a red cell of Table 4) is dropped.
type Axis struct {
	Param  string            `json:"param"`
	Values []json.RawMessage `json:"values"`
	// Labels optionally override the per-value display in axis columns
	// (same length as Values).
	Labels []string `json:"labels,omitempty"`
}

// Column is one output column: either an axis echo or an aggregated
// metric over a workload group.
type Column struct {
	Name string `json:"name"`
	// Axis echoes the named sweep axis' value for the row.
	Axis string `json:"axis,omitempty"`
	// Group and Metric aggregate a per-member metric over the group.
	Group  string `json:"group,omitempty"`
	Metric string `json:"metric,omitempty"`
	// Agg is mean (default), min, max, sum, geomean or ratioOfSums:
	// the metric summed over the members divided by the same sum over
	// their baseline cells, both in member order (needs a baseline and
	// a metric that is not normalized already).
	Agg string `json:"agg,omitempty"`
}

// Parse decodes a spec from JSON, rejecting unknown fields so schema
// typos surface as load errors rather than silently ignored knobs.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after spec document")
	}
	return &s, nil
}

// LoadFile reads and decodes a spec file, then inlines any path-based
// trace cores — relative trace paths resolve against the spec file's
// directory. It is the only code that reads a trace file: Compile
// rejects a trace path, so a spec compiles from its bytes alone, and
// the loaded spec validates, runs and ships over the wire (remote
// submission, fabric dispatch) identically from any working
// directory. Content addressing makes the rewrite invisible: the
// records' canonical digest, not the file path, is the cell identity.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.inlineTraces(filepath.Dir(path)); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// inlineTraces rewrites every path-based trace core into its inline
// text form, resolving relative paths against dir. The display name
// defaults to the file's base name without its extension. A core that
// replays only its first Loop records inlines only those, as
// resolveReplay would truncate them, so the digest and the cell keys
// are those of the whole file while the spec stays small enough to
// ship to a daemon.
func (s *Spec) inlineTraces(dir string) error {
	for _, g := range s.Workloads {
		for mi, m := range g.Members {
			for ci, c := range m.Cores {
				ts := c.Trace
				if ts == nil || ts.Path == "" {
					continue
				}
				path := fmt.Sprintf("workloads[%q].members[%d].cores[%d].trace", g.Name, mi, ci)
				if ts.Inline != "" {
					return s.errf(path, "give exactly one of path or inline")
				}
				p := ts.Path
				if !filepath.IsAbs(p) {
					p = filepath.Join(dir, p)
				}
				recs, err := trace.ReadFile(p)
				if err != nil {
					return s.errf(path+".path", "%v", err)
				}
				if ts.Loop > 0 && ts.Loop < len(recs) {
					recs = recs[:ts.Loop]
				}
				var buf bytes.Buffer
				if err := trace.WriteRecords(&buf, recs); err != nil {
					return s.errf(path+".path", "%v", err)
				}
				if ts.Name == "" {
					ts.Name = strings.TrimSuffix(filepath.Base(ts.Path), filepath.Ext(ts.Path))
				}
				ts.Inline = buf.String()
				ts.Path = ""
			}
		}
	}
	return nil
}

// Validate fully resolves the spec — sweep points, workloads, memory
// geometry, PaCRAM derivations — without running anything.
func (s *Spec) Validate() error {
	_, err := s.Compile()
	return err
}

// MemoryProfile summarizes the device profile(s) the spec uses, for
// catalog listings: "default" when it inherits the base system, the
// profile's name when one is pinned, "N profiles" when swept.
func (s *Spec) MemoryProfile() string {
	seen := make(map[string]bool)
	var list []string
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			list = append(list, n)
		}
	}
	if s.Memory != nil {
		add(s.Memory.Profile)
	}
	if s.Baseline != nil && s.Baseline.Memory != nil {
		add(s.Baseline.Memory.Profile)
	}
	if s.Sweep != nil {
		for _, ax := range s.Sweep.Axes {
			if ax.Param != "memory.profile" {
				continue
			}
			for _, raw := range ax.Values {
				var v string
				if json.Unmarshal(raw, &v) == nil {
					add(v)
				}
			}
		}
	}
	switch len(list) {
	case 0:
		return "default"
	case 1:
		return list[0]
	}
	return fmt.Sprintf("%d profiles", len(list))
}

// Sources summarizes the workload source kinds the spec's members
// draw from ("mix+attacker", "workload+trace", ...), for catalog
// listings.
func (s *Spec) Sources() string {
	kinds := make(map[string]bool)
	for _, g := range s.Workloads {
		for _, m := range g.Members {
			if m.Mix != "" {
				kinds["mix"] = true
			}
			for _, c := range m.Cores {
				switch {
				case c.Workload != "":
					kinds["workload"] = true
				case c.Synthetic != nil:
					kinds["synthetic"] = true
				case c.Attacker != nil:
					kinds["attacker"] = true
				case c.Trace != nil:
					kinds["trace"] = true
				case len(c.Phases) > 0:
					kinds["phased"] = true
				}
			}
		}
	}
	var out []string
	for _, k := range []string{"mix", "workload", "synthetic", "attacker", "trace", "phased"} {
		if kinds[k] {
			out = append(out, k)
		}
	}
	return strings.Join(out, "+")
}

// errf builds a scenario-scoped error with a precise field path, e.g.
//
//	scenario "x": workloads["mixes"].members[2].cores[0].workload: unknown spec "foo"
func (s *Spec) errf(path, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if path == "" {
		return fmt.Errorf("scenario %q: %s", s.Name, msg)
	}
	return fmt.Errorf("scenario %q: %s: %s", s.Name, path, msg)
}
