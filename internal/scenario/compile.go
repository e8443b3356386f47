package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"time"

	"pacram/internal/chips"
	pacram "pacram/internal/core"
	"pacram/internal/ddr"
	"pacram/internal/memsys"
	"pacram/internal/mitigation"
	"pacram/internal/runner"
	"pacram/internal/sim"
	"pacram/internal/trace"
)

// defaultSeed matches the paper drivers' default so scenario cells and
// exp cells agree when the spec does not pin a seed.
const defaultSeed = 0x51317

// cell is a sweep point's mutable state before resolution: base spec
// values with axis overrides applied. memPatch, when set, is a second
// memory overlay applied after mem (the baseline's pin). pacModule and
// pacFactor hold the pacram.module and pacram.factor axes' values; set
// together, they replace cfg.PaCRAM.
type cell struct {
	sim       SimParams
	mem       MemParams
	memPatch  *MemParams
	cfg       CellConfig
	pacModule string
	pacFactor float64
}

// maxPlanCells bounds a plan's sweep points × workload members, checked
// from the axis lengths before any point is built. The largest paper
// figure at the paper's full scale is Fig. 16: 3 PaCRAM configs × 5
// mechanisms × 6 thresholds (1K..32) × 7 latency factors = 630 points
// over 62 single-core workloads, 39,060; the bound admits it with room
// to spare and rejects a small spec of many short axes before it
// expands into billions of points.
const maxPlanCells = 1 << 16

// maxCellBanks and maxCellInstructions bound one cell's own cost,
// checked as the cell is resolved. Banks (channels × ranks × bank
// groups × banks per group) size the state a cell allocates before
// its first cycle, about 6 KB per bank under Hydra; simulated
// instructions (cores × (instructions + warmup)) size its run. The
// paper's system has 32 banks, and a four-core cell at the paper's
// full scale of 100M instructions with a 10M warmup simulates 440M.
const (
	maxCellBanks        = 1 << 12
	maxCellInstructions = 1 << 34
)

// pacramKey fingerprints a PaCRAM operating point for job keys (the
// derived pacram.Config contains +Inf fields, which JSON rejects; the
// derivation is deterministic from these plus NRH and timing anyway).
type pacramKey struct {
	Module    string `json:"module"`
	FactorIdx int    `json:"factorIdx"`
}

// resolvedCell is a fully resolved simulation configuration minus the
// workload: everything sim.Run needs, plus the hashable PaCRAM source.
type resolvedCell struct {
	MemCfg     memsys.Config
	Mitigation string
	NRH        int
	PaCRAM     *pacram.Config
	PacKey     *pacramKey
	Periodic   bool
	// PeriodicFactor is 0 for nominal periodic refresh (a factor of 1
	// canonicalizes to 0, so it shares the plain cell).
	PeriodicFactor float64
	Insts          uint64
	Warmup         uint64
	MaxCycles      uint64
	Seed           uint64
}

// resolvedCore is one core's workload in canonical form. It doubles as
// the job-key hash payload, so identical workloads hash identically.
type resolvedCore struct {
	Spec   *trace.Spec       `json:"spec,omitempty"`
	Attack *trace.AttackSpec `json:"attack,omitempty"`
	Phased *phasedCore       `json:"phased,omitempty"`
	Replay *replayCore       `json:"replay,omitempty"`
}

type phasedCore struct {
	Name   string      `json:"name"`
	Phases []phaseCore `json:"phases"`
}

type phaseCore struct {
	Spec     trace.Spec `json:"spec"`
	Accesses int        `json:"accesses"`
}

// resolvedMember is one simulation cell's workload assignment.
// coresJSON is cores' encoding, written once per member for the job
// keys of all its cells (see keyEncoder).
type resolvedMember struct {
	name      string
	cores     []resolvedCore
	coresJSON []byte
}

// memberCells locates one member's results within a row: the job
// index of its cell and, when the scenario has a baseline, of the
// normalization cell (-1 without one). Indices are positions in the
// plan's job list, so in a run's results.
type memberCells struct {
	cell, base int
}

// rowPlan is one output row: axis displays plus, per workload group,
// the member cell keys feeding metric columns.
type rowPlan struct {
	display map[string]any
	groups  [][]memberCells // indexed like Spec.Workloads
}

// Plan is a compiled scenario: the deduplicated job matrix and the
// row/column assembly recipe.
type Plan struct {
	Spec     *Spec
	rows     []rowPlan
	matrix   *runner.Matrix[sim.Result]
	groupIdx map[string]int
	cells    []Cell
	keys     keyEncoder
}

// Cell is one distinct simulation job of a compiled plan, addressable
// outside the runner: the engine-parity suite uses it to run every
// catalog cell under both simulation engines.
type Cell struct {
	// Key is the content-addressed job key (see keyEncoder).
	Key   string
	rc    *resolvedCell
	cores []resolvedCore
}

// Options assembles a fresh sim.Options for the cell. Generator state
// is rebuilt on every call, so one Cell can be simulated repeatedly.
func (c Cell) Options() (sim.Options, error) { return c.rc.simOptions(c.cores) }

// Cells lists the plan's distinct simulation jobs in planning order.
func (p *Plan) Cells() []Cell { return p.cells }

// Jobs returns the number of distinct simulation cells the plan runs.
func (p *Plan) Jobs() int { return p.matrix.Len() }

// Job returns the plan's runner job for one cell key; fabric workers
// use it to execute exactly one dispatched cell of a shipped plan.
func (p *Plan) Job(key string) (runner.Job[sim.Result], bool) { return p.matrix.Job(key) }

// Rows returns the number of output rows (sweep points).
func (p *Plan) Rows() int { return len(p.rows) }

// Compile validates the spec end to end and lowers it into a runner
// job matrix. All validation errors carry the precise field path.
func (s *Spec) Compile() (*Plan, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: spec needs a name")
	}
	if s.Sim.Instructions == 0 {
		return nil, s.errf("sim.instructions", "must be positive")
	}
	if len(s.Workloads) == 0 {
		return nil, s.errf("workloads", "need at least one group")
	}
	if len(s.Columns) == 0 {
		return nil, s.errf("columns", "need at least one column")
	}

	// Workload groups.
	groupIdx := make(map[string]int, len(s.Workloads))
	groups := make([][]resolvedMember, len(s.Workloads))
	for gi, g := range s.Workloads {
		gpath := fmt.Sprintf("workloads[%q]", g.Name)
		if g.Name == "" {
			return nil, s.errf(fmt.Sprintf("workloads[%d].name", gi), "missing group name")
		}
		if _, dup := groupIdx[g.Name]; dup {
			return nil, s.errf(gpath, "duplicate group name")
		}
		if len(g.Members) == 0 {
			return nil, s.errf(gpath+".members", "need at least one member")
		}
		groupIdx[g.Name] = gi
		for mi, m := range g.Members {
			mpath := fmt.Sprintf("%s.members[%d]", gpath, mi)
			rm, err := s.resolveMember(mpath, m)
			if err != nil {
				return nil, err
			}
			if rm.coresJSON, err = json.Marshal(rm.cores); err != nil {
				return nil, s.errf(mpath, "%v", err)
			}
			groups[gi] = append(groups[gi], rm)
		}
	}

	// Sweep points.
	members := 0
	for _, g := range groups {
		members += len(g)
	}
	points, axisSet, err := s.expandSweep(members)
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool)
	if s.Baseline != nil {
		for ki, p := range s.Baseline.Keep {
			if !axisSet[p] {
				return nil, s.errf(fmt.Sprintf("baseline.keep[%d]", ki), "no sweep axis %q", p)
			}
			keep[p] = true
		}
	}
	perMember := -1
	if s.Sweep != nil && s.Sweep.PerMember != "" {
		gi, ok := groupIdx[s.Sweep.PerMember]
		if !ok {
			return nil, s.errf("sweep.perMember", "no workload group %q", s.Sweep.PerMember)
		}
		perMember = gi
		axisSet["member"] = true
	}

	// Columns.
	for ci, col := range s.Columns {
		cpath := fmt.Sprintf("columns[%d]", ci)
		if col.Name == "" {
			return nil, s.errf(cpath+".name", "missing column name")
		}
		switch {
		case col.Axis != "" && (col.Metric != "" || col.Group != "" || col.Agg != ""):
			return nil, s.errf(cpath, "give either axis or group+metric(+agg), not both")
		case col.Axis != "":
			if !axisSet[col.Axis] {
				return nil, s.errf(cpath+".axis", "no sweep axis %q", col.Axis)
			}
		case col.Metric != "":
			m, ok := metricRegistry[col.Metric]
			if !ok {
				return nil, s.errf(cpath+".metric", "unknown metric %q (have: %s)", col.Metric, metricNames())
			}
			if m.kind == normMetric && s.Baseline == nil {
				return nil, s.errf(cpath+".metric", "%q normalizes against the baseline, but the scenario has none", col.Metric)
			}
			if _, ok := groupIdx[col.Group]; !ok {
				return nil, s.errf(cpath+".group", "no workload group %q", col.Group)
			}
			if _, err := aggregate(col.Agg, []float64{1}, []float64{1}); err != nil {
				return nil, s.errf(cpath+".agg", "%v", err)
			}
			if col.Agg == ratioOfSums {
				if s.Baseline == nil {
					return nil, s.errf(cpath+".agg", "%s divides by the baseline's sum, but the scenario has no baseline", ratioOfSums)
				}
				if m.kind == normMetric {
					return nil, s.errf(cpath+".agg", "%s sums a raw metric, and %q is normalized already", ratioOfSums, col.Metric)
				}
			}
		default:
			return nil, s.errf(cpath, "column needs an axis or a group+metric")
		}
	}

	// Lower every sweep point into jobs.
	plan := &Plan{Spec: s, matrix: runner.NewMatrix[sim.Result](), groupIdx: groupIdx}
	for pi, pt := range points {
		ppath := fmt.Sprintf("sweep point %d", pi)
		c := s.baseCell()
		for _, av := range pt.values {
			av.apply(&c)
		}
		if c.pacModule != "" && c.pacFactor != 1 && !derivable(c.pacModule, c.pacFactor) {
			continue // a red cell: the module cannot run at this factor
		}
		rc, err := s.resolveCell(c, ppath)
		if err != nil {
			return nil, err
		}
		var baseRC *resolvedCell
		if s.Baseline != nil {
			bc := c
			bc.cfg = s.Baseline.CellConfig
			bc.pacModule, bc.pacFactor = "", 0
			for ai, av := range pt.values {
				if keep[s.Sweep.Axes[ai].Param] {
					av.apply(&bc)
				}
			}
			if s.Baseline.Memory != nil {
				bc.memPatch = s.Baseline.Memory
			}
			baseRC, err = s.resolveCell(bc, ppath+" baseline")
			if err != nil {
				return nil, err
			}
		}
		row := rowPlan{display: pt.display, groups: make([][]memberCells, len(groups))}
		for gi := range groups {
			for _, mem := range groups[gi] {
				// The baseline cell runs the same budget.
				if err := rc.checkWork(len(mem.cores)); err != nil {
					return nil, s.errf(fmt.Sprintf("%s: member %q", ppath, mem.name), "%v", err)
				}
				// Attacker strides resolve against the cell's geometry,
				// so their footprint check must re-run per sweep point —
				// here, at plan time with a precise path, not mid-sweep
				// inside the runner.
				for ci, core := range mem.cores {
					if core.Attack == nil {
						continue
					}
					if _, err := rc.attackSpec(*core.Attack); err != nil {
						return nil, s.errf(fmt.Sprintf("%s: member %q core %d attacker", ppath, mem.name, ci), "%v", err)
					}
					if baseRC != nil {
						if _, err := baseRC.attackSpec(*core.Attack); err != nil {
							return nil, s.errf(fmt.Sprintf("%s baseline: member %q core %d attacker", ppath, mem.name, ci), "%v", err)
						}
					}
				}
				mc := memberCells{base: -1}
				mc.cell, err = plan.addJob(rc, mem)
				if err != nil {
					return nil, err
				}
				if baseRC != nil {
					mc.base, err = plan.addJob(baseRC, mem)
					if err != nil {
						return nil, err
					}
				}
				row.groups[gi] = append(row.groups[gi], mc)
			}
		}
		plan.rows = append(plan.rows, row)
	}
	if perMember >= 0 {
		rows := make([]rowPlan, 0, len(plan.rows)*len(groups[perMember]))
		for mi, mem := range groups[perMember] {
			for _, row := range plan.rows {
				r := rowPlan{display: maps.Clone(row.display), groups: slices.Clone(row.groups)}
				r.display["member"] = mem.name
				r.groups[perMember] = row.groups[perMember][mi : mi+1]
				rows = append(rows, r)
			}
		}
		plan.rows = rows
	}
	// Every run of the plan uses the same fingerprint and seed, so each
	// cell's store address is computed here, once per plan.
	plan.matrix.Address(runFingerprint, runSeed)
	return plan, nil
}

// addJob plans one simulation cell, returning its job index; identical
// cells are planned once.
func (p *Plan) addJob(rc *resolvedCell, mem resolvedMember) (int, error) {
	key, err := p.keys.key(rc, mem)
	if err != nil {
		return 0, err
	}
	if i, ok := p.matrix.Index(key); ok {
		return i, nil
	}
	cellCopy := *rc
	cores := mem.cores
	p.cells = append(p.cells, Cell{Key: key, rc: &cellCopy, cores: cores})
	return p.matrix.Add(key, func(ctx runner.Ctx) (sim.Result, error) {
		opt, err := cellCopy.simOptions(cores)
		if err != nil {
			return sim.Result{}, err
		}
		// With a cell trace attached, run profiled and surface the
		// simulator's own wall-time split (core loop, controller ticks,
		// channel windows, audit merge) as sub-phase spans beside the
		// pool's compute span. The spans are synthetic — anchored
		// backwards from the run's end, since the slices interleave —
		// and the Profile is stripped before returning, so cached
		// result bytes are identical with and without tracing.
		opt.Profile = ctx.Phase != nil
		res, err := sim.Run(opt)
		if err != nil {
			return sim.Result{}, fmt.Errorf("scenario %s: cell %s: %w", p.Spec.Name, key, err)
		}
		if prof := res.Profile; prof != nil {
			end := time.Now()
			span := func(name string, nanos int64) {
				if nanos > 0 {
					ctx.Phase(name, end.Add(-time.Duration(nanos)), end)
				}
			}
			span("sim-cores", prof.CoreNanos)
			span("sim-ctrl", prof.CtrlNanos)
			span("sim-windows", prof.WindowNanos)
			span("sim-window-merge", prof.MergeNanos)
			res.Profile = nil
		}
		return res, nil
	}), nil
}

// simOptions assembles the sim.Options for one cell: one generator per
// core, seeded with sim.WorkloadSeed as sim.Run seeds Options.Workloads.
func (rc *resolvedCell) simOptions(cores []resolvedCore) (sim.Options, error) {
	opt := sim.Options{
		MemCfg:            rc.MemCfg,
		Mitigation:        rc.Mitigation,
		NRH:               rc.NRH,
		PaCRAM:            rc.PaCRAM,
		PeriodicExtension: rc.Periodic,
		PeriodicFactor:    rc.PeriodicFactor,
		Instructions:      rc.Insts,
		Warmup:            rc.Warmup,
		MaxCycles:         rc.MaxCycles,
		Seed:              rc.Seed,
	}
	opt.Generators = make([]trace.Generator, len(cores))
	for i, c := range cores {
		seed := sim.WorkloadSeed(rc.Seed, i)
		var gen trace.Generator
		var err error
		switch {
		case c.Spec != nil:
			gen, err = trace.New(*c.Spec, seed)
		case c.Attack != nil:
			var as trace.AttackSpec
			as, err = rc.attackSpec(*c.Attack)
			if err == nil {
				gen, err = trace.NewAttacker(as, seed)
			}
		case c.Phased != nil:
			phases := make([]trace.Phase, len(c.Phased.Phases))
			for pi, ph := range c.Phased.Phases {
				phases[pi] = trace.Phase{Spec: ph.Spec, Accesses: ph.Accesses}
			}
			gen, err = trace.NewPhased(c.Phased.Name, phases, seed)
		case c.Replay != nil:
			// Replay is fully deterministic; the per-core seed is unused.
			gen, err = trace.NewReplay(c.Replay.Name, c.Replay.recs)
		default:
			err = fmt.Errorf("scenario: internal: empty resolved core %d", i)
		}
		if err != nil {
			return sim.Options{}, err
		}
		opt.Generators[i] = gen
	}
	return opt, nil
}

// attackSpec resolves an attacker spec against this cell's geometry:
// an unset stride becomes the cell mapping's row stride (one row per
// stride at any channel count), and the resolved spec is re-validated
// — the stride grows with the channel count, so a footprint that held
// at one channel can overflow at four.
func (rc *resolvedCell) attackSpec(a trace.AttackSpec) (trace.AttackSpec, error) {
	if a.StrideBytes == 0 {
		mapper, err := ddr.NewMOPMapper(rc.MemCfg.Geometry, rc.MemCfg.MOPWidth)
		if err != nil {
			return a, err
		}
		a.StrideBytes = int(mapper.RowStrideBytes())
	}
	return a, a.Validate()
}

// baseCell is the pre-sweep state: spec defaults with the seed filled
// in.
func (s *Spec) baseCell() cell {
	c := cell{sim: s.Sim, cfg: s.Config}
	if s.Memory != nil {
		c.mem = *s.Memory
	}
	if c.sim.Seed == 0 {
		c.sim.Seed = defaultSeed
	}
	return c
}

// applyMem overlays one MemParams patch onto a memory configuration
// (zero/nil fields inherit). This is the single place MemParams fields
// map onto memsys.Config; TRFCScale is returned, not applied — it is
// a multiplier, so "last patch wins" must be resolved by the caller
// before scaling once.
func applyMem(mem *memsys.Config, m MemParams) (trfcScale float64, err error) {
	if m.Profile != "" {
		p, err := ddr.ProfileByName(m.Profile)
		if err != nil {
			return 0, err
		}
		mem.Geometry = p.Geometry
		mem.Timing = p.Timing
	}
	if m.Channels != 0 {
		mem.Geometry.Channels = m.Channels
	}
	if m.Ranks != 0 {
		mem.Geometry.Ranks = m.Ranks
	}
	if m.BankGroups != 0 {
		mem.Geometry.BankGroups = m.BankGroups
	}
	if m.BanksPerGroup != 0 {
		mem.Geometry.BanksPerGroup = m.BanksPerGroup
	}
	if m.Rows != 0 {
		mem.Geometry.Rows = m.Rows
	}
	if m.Columns != 0 {
		mem.Geometry.Columns = m.Columns
	}
	if m.MOPWidth != 0 {
		mem.MOPWidth = m.MOPWidth
	}
	if m.BlastRadius != 0 {
		mem.BlastRadius = m.BlastRadius
	}
	if m.ReadQueue != 0 {
		mem.ReadQueue = m.ReadQueue
	}
	if m.WriteQueue != 0 {
		mem.WriteQueue = m.WriteQueue
	}
	if m.CPUFreqGHz != 0 {
		mem.CPUFreqGHz = m.CPUFreqGHz
	}
	if m.RefreshEnabled != nil {
		mem.RefreshEnabled = *m.RefreshEnabled
	}
	return m.TRFCScale, nil
}

// resolveCell turns a cell into a runnable configuration, validating
// geometry, mechanism and PaCRAM derivability.
func (s *Spec) resolveCell(c cell, path string) (*resolvedCell, error) {
	mem := sim.SmallMemConfig()
	trfc, err := applyMem(&mem, c.mem)
	if err != nil {
		return nil, s.errf(path+": memory.profile", "%v", err)
	}
	if c.memPatch != nil {
		v, err := applyMem(&mem, *c.memPatch)
		if err != nil {
			return nil, s.errf(path+": memory.profile", "%v", err)
		}
		if v != 0 {
			trfc = v
		}
	}
	if trfc != 0 {
		if trfc < 0 {
			return nil, s.errf(path+": memory.trfcScale", "must be positive, got %g", trfc)
		}
		mem.Timing = mem.Timing.ScaleTRFC(trfc)
	}
	if err := mem.Geometry.Validate(); err != nil {
		return nil, s.errf(path+": memory", "%v", err)
	}
	if err := mem.Validate(); err != nil {
		return nil, s.errf(path+": memory", "%v", err)
	}
	if err := checkBanks(mem.Geometry); err != nil {
		return nil, s.errf(path+": memory", "%v", err)
	}

	// Re-check budgets here, not just at spec level: sweep axes can
	// set them per point.
	if c.sim.Instructions == 0 {
		return nil, s.errf(path+": instructions", "must be positive")
	}

	mech := c.cfg.Mitigation
	if mech == "" {
		mech = "None"
	}
	if !mitigation.Known(mech) {
		return nil, s.errf(path+": mitigation", "unknown mechanism %q (valid: %s, None)",
			mech, strings.Join(mitigation.AllNames(), " "))
	}
	if mech != "None" && c.cfg.NRH < 1 {
		return nil, s.errf(path+": nrh", "mechanism %s needs nrh >= 1, got %d", mech, c.cfg.NRH)
	}

	ps := c.cfg.PaCRAM
	if c.pacModule != "" || c.pacFactor != 0 {
		if c.pacModule == "" || c.pacFactor == 0 {
			return nil, s.errf(path+": pacram", "pacram.module and pacram.factor must be swept together")
		}
		ps = nil // factor 1.0 is nominal: no PaCRAM
		if c.pacFactor != 1 {
			ps = &PaCRAMSpec{Module: c.pacModule, Factor: c.pacFactor}
		}
	}
	rc := &resolvedCell{
		MemCfg:     mem,
		Mitigation: mech,
		NRH:        c.cfg.NRH,
		Periodic:   c.cfg.PeriodicExtension,
		Insts:      c.sim.Instructions,
		Warmup:     c.sim.Warmup,
		MaxCycles:  c.sim.MaxCycles,
		Seed:       c.sim.Seed,
	}
	if ps != nil {
		idx, err := factorIndex(ps.Factor)
		if err != nil {
			return nil, s.errf(path+": pacram.factor", "%v", err)
		}
		mod, err := chips.ByID(ps.Module)
		if err != nil {
			return nil, s.errf(path+": pacram.module", "%v", err)
		}
		cfg, err := pacram.Derive(mod, idx, rc.NRH, mem.Timing)
		if err != nil {
			return nil, s.errf(path+": pacram", "%v", err)
		}
		rc.PaCRAM = &cfg
		rc.PacKey = &pacramKey{Module: ps.Module, FactorIdx: idx}
	}
	if rc.Periodic && rc.PaCRAM == nil {
		return nil, s.errf(path+": periodicExtension", "requires a pacram operating point")
	}
	if f := c.cfg.PeriodicFactor; f != 0 {
		if f < 0 || f > 1 {
			return nil, s.errf(path+": periodicFactor", "must be in (0, 1], got %g", f)
		}
		if rc.PaCRAM != nil {
			return nil, s.errf(path+": periodicFactor", "cannot be combined with a pacram operating point")
		}
		if f < 1 {
			rc.PeriodicFactor = f
		}
	}
	return rc, nil
}

// checkBanks bounds a cell's banks by maxCellBanks, multiplying the
// dimensions only while the product stays under the bound.
func checkBanks(g ddr.Geometry) error {
	n := 1
	for _, d := range []int{g.Channels, g.Ranks, g.BankGroups, g.BanksPerGroup} {
		if d > maxCellBanks/n {
			return fmt.Errorf("%d channels × %d ranks × %d bank groups × %d banks is over the per-cell bound of %d banks",
				g.Channels, g.Ranks, g.BankGroups, g.BanksPerGroup, maxCellBanks)
		}
		n *= d
	}
	return nil
}

// checkWork bounds the instructions the cell simulates on a member of
// the given number of cores by maxCellInstructions, without overflow.
func (rc *resolvedCell) checkWork(cores int) error {
	perCore := rc.Insts + rc.Warmup
	if perCore < rc.Insts || perCore > maxCellInstructions/uint64(cores) {
		return fmt.Errorf("%d cores × (%d instructions + %d warmup) is over the per-cell bound of %d simulated instructions",
			cores, rc.Insts, rc.Warmup, uint64(maxCellInstructions))
	}
	return nil
}

// derivable reports whether a module can run PaCRAM at a factor: false
// for Table 4's red cells, which pacram.Derive rejects. Both values
// were validated when their axes were parsed.
func derivable(module string, factor float64) bool {
	m, _ := chips.ByID(module)
	idx, _ := factorIndex(factor)
	_, err := pacram.Derive(m, idx, 1, sim.SmallMemConfig().Timing)
	return err == nil
}

// factorIndex maps a restoration-latency factor back to its index in
// the characterized set.
func factorIndex(f float64) (int, error) {
	for i, v := range chips.Factors {
		if math.Abs(v-f) < 1e-9 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("factor %g is not characterized (have %v)", f, chips.Factors)
}

// resolveMember validates one member and lowers its cores.
func (s *Spec) resolveMember(path string, m Member) (resolvedMember, error) {
	if m.Mix != "" && len(m.Cores) > 0 {
		return resolvedMember{}, s.errf(path, "give either mix or cores, not both")
	}
	if m.Mix != "" {
		mix, err := trace.MixByName(m.Mix)
		if err != nil {
			return resolvedMember{}, s.errf(path+".mix", "%v", err)
		}
		rm := resolvedMember{name: m.Name}
		if rm.name == "" {
			rm.name = mix.Name
		}
		for i := range mix.Specs {
			spec := mix.Specs[i]
			rm.cores = append(rm.cores, resolvedCore{Spec: &spec})
		}
		return rm, nil
	}
	if len(m.Cores) == 0 {
		return resolvedMember{}, s.errf(path, "member needs a mix or at least one core")
	}
	rm := resolvedMember{name: m.Name}
	for ci, cs := range m.Cores {
		cpath := fmt.Sprintf("%s.cores[%d]", path, ci)
		rc, err := s.resolveCore(cpath, ci, cs)
		if err != nil {
			return resolvedMember{}, err
		}
		rm.cores = append(rm.cores, rc)
	}
	if rm.name == "" {
		rm.name = memberName(rm.cores)
	}
	return rm, nil
}

// memberName derives a display name from the member's cores.
func memberName(cores []resolvedCore) string {
	var parts []string
	for _, c := range cores {
		switch {
		case c.Spec != nil:
			parts = append(parts, c.Spec.Name)
		case c.Attack != nil:
			parts = append(parts, c.Attack.Name)
		case c.Phased != nil:
			parts = append(parts, c.Phased.Name)
		case c.Replay != nil:
			parts = append(parts, c.Replay.Name)
		}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return strings.Join(parts, "+")
}

// resolveCore lowers one CoreSpec into canonical form.
func (s *Spec) resolveCore(path string, idx int, cs CoreSpec) (resolvedCore, error) {
	set := 0
	for _, on := range []bool{cs.Workload != "", cs.Synthetic != nil, cs.Attacker != nil, cs.Trace != nil, len(cs.Phases) > 0} {
		if on {
			set++
		}
	}
	if set != 1 {
		return resolvedCore{}, s.errf(path, "give exactly one of workload, synthetic, attacker, trace or phases")
	}
	switch {
	case cs.Workload != "":
		spec, err := s.resolveTraceSpec(path, cs.Workload, cs.Override, nil)
		if err != nil {
			return resolvedCore{}, err
		}
		return resolvedCore{Spec: spec}, nil
	case cs.Synthetic != nil:
		if cs.Override != nil {
			return resolvedCore{}, s.errf(path+".override", "override applies to catalog workloads only")
		}
		spec, err := s.resolveTraceSpec(path, "", nil, cs.Synthetic)
		if err != nil {
			return resolvedCore{}, err
		}
		return resolvedCore{Spec: spec}, nil
	case cs.Attacker != nil:
		a := cs.Attacker
		as := trace.AttackSpec{
			Name:          a.Name,
			Sides:         a.Sides,
			StrideBytes:   a.StrideKB * 1024,
			Bubbles:       a.Bubbles,
			VictimEvery:   a.VictimEvery,
			FootprintMB:   a.FootprintMB,
			OpenRowReads:  a.OpenRowReads,
			BurstAccesses: a.BurstAccesses,
			RestBubbles:   a.RestBubbles,
		}
		if err := as.Validate(); err != nil {
			return resolvedCore{}, s.errf(path+".attacker", "%v", err)
		}
		// Canonicalize so specs that differ only in spelled-out defaults
		// hash to the same cell — except the stride: an unset stride
		// stays 0 and resolves per cell to the cell geometry's row
		// stride (one row per stride on every channel count), which the
		// single geometry-aware default trace cannot provide. The cell's
		// MemCfg is part of the job key, so the 0 is unambiguous.
		as = as.WithDefaults()
		as.StrideBytes = a.StrideKB * 1024
		return resolvedCore{Attack: &as}, nil
	case cs.Trace != nil:
		rp, err := s.resolveReplay(path+".trace", cs.Trace)
		if err != nil {
			return resolvedCore{}, err
		}
		return resolvedCore{Replay: rp}, nil
	default:
		name := cs.Name
		if name == "" {
			name = fmt.Sprintf("phased%d", idx)
		}
		pc := phasedCore{Name: name}
		for pi, ph := range cs.Phases {
			ppath := fmt.Sprintf("%s.phases[%d]", path, pi)
			if (ph.Workload != "") == (ph.Synthetic != nil) {
				return resolvedCore{}, s.errf(ppath, "give exactly one of workload or synthetic")
			}
			if ph.Accesses < 1 {
				return resolvedCore{}, s.errf(ppath+".accesses", "must be >= 1, got %d", ph.Accesses)
			}
			spec, err := s.resolveTraceSpec(ppath, ph.Workload, ph.Override, ph.Synthetic)
			if err != nil {
				return resolvedCore{}, err
			}
			pc.Phases = append(pc.Phases, phaseCore{Spec: *spec, Accesses: ph.Accesses})
		}
		return resolvedCore{Phased: &pc}, nil
	}
}

// resolveTraceSpec builds a trace.Spec from a catalog name (plus
// optional override) or a synthetic definition.
func (s *Spec) resolveTraceSpec(path, workload string, ov *SpecOverride, syn *SyntheticSpec) (*trace.Spec, error) {
	var spec trace.Spec
	if workload != "" {
		var err error
		spec, err = trace.SpecByName(workload)
		if err != nil {
			return nil, s.errf(path+".workload", "unknown spec %q", workload)
		}
		if ov != nil {
			if ov.Name != nil {
				spec.Name = *ov.Name
			}
			if ov.Pattern != nil {
				p, err := trace.ParsePattern(*ov.Pattern)
				if err != nil {
					return nil, s.errf(path+".override.pattern", "%v", err)
				}
				spec.Pattern = p
			}
			if ov.BubbleMean != nil {
				spec.BubbleMean = *ov.BubbleMean
			}
			if ov.FootprintMB != nil {
				spec.FootprintMB = *ov.FootprintMB
			}
			if ov.BurstLen != nil {
				spec.BurstLen = *ov.BurstLen
			}
			if ov.WriteFrac != nil {
				spec.WriteFrac = *ov.WriteFrac
			}
			if ov.ZipfTheta != nil {
				spec.ZipfTheta = *ov.ZipfTheta
			}
		}
	} else {
		p, err := trace.ParsePattern(syn.Pattern)
		if err != nil {
			return nil, s.errf(path+".synthetic.pattern", "%v", err)
		}
		spec = trace.Spec{
			Name:        syn.Name,
			BubbleMean:  syn.BubbleMean,
			Pattern:     p,
			FootprintMB: syn.FootprintMB,
			BurstLen:    syn.BurstLen,
			WriteFrac:   syn.WriteFrac,
			ZipfTheta:   syn.ZipfTheta,
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, s.errf(path, "%v", err)
	}
	return &spec, nil
}

// axisValue is one parsed sweep-axis entry.
type axisValue struct {
	display any
	apply   func(*cell)
}

// point is one sweep point: the axis values to apply and their
// displays, keyed by axis param.
type point struct {
	values  []axisValue
	display map[string]any
}

// expandSweep parses the axes and expands them into points (one output
// row each). Product mode crosses all axes with the rightmost axis
// fastest; zip mode advances all axes in lockstep. The point count,
// times the spec's members, is checked against maxPlanCells before
// any point is built.
func (s *Spec) expandSweep(members int) ([]point, map[string]bool, error) {
	axisSet := make(map[string]bool)
	var axes []Axis
	mode := "product"
	if s.Sweep != nil && len(s.Sweep.Axes) > 0 {
		axes = s.Sweep.Axes
		if s.Sweep.Mode != "" {
			mode = s.Sweep.Mode
		}
		if mode != "product" && mode != "zip" {
			return nil, nil, s.errf("sweep.mode", "must be \"product\" or \"zip\", got %q", mode)
		}
	}

	parsed := make([][]axisValue, len(axes))
	for ai, ax := range axes {
		apath := fmt.Sprintf("sweep.axes[%d]", ai)
		if ax.Param == "" {
			return nil, nil, s.errf(apath+".param", "missing axis parameter")
		}
		if axisSet[ax.Param] {
			return nil, nil, s.errf(apath+".param", "duplicate axis %q", ax.Param)
		}
		axisSet[ax.Param] = true
		if len(ax.Values) == 0 {
			return nil, nil, s.errf(apath+".values", "need at least one value")
		}
		if ax.Labels != nil && len(ax.Labels) != len(ax.Values) {
			return nil, nil, s.errf(apath+".labels", "got %d labels for %d values", len(ax.Labels), len(ax.Values))
		}
		for vi, raw := range ax.Values {
			av, err := parseAxisValue(ax.Param, raw)
			if err != nil {
				return nil, nil, s.errf(fmt.Sprintf("%s.values[%d]", apath, vi), "%v", err)
			}
			if ax.Labels != nil {
				av.display = ax.Labels[vi]
			}
			parsed[ai] = append(parsed[ai], av)
		}
	}
	if axisSet["pacram"] && (axisSet["pacram.module"] || axisSet["pacram.factor"]) {
		return nil, nil, s.errf("sweep.axes", "sweep either pacram or pacram.module and pacram.factor, not both")
	}

	// Count the points, saturating past the bound so no product of
	// axis lengths can overflow.
	n, product := 1, "1"
	if mode == "zip" {
		n = len(parsed[0])
		for ai, vs := range parsed {
			if len(vs) != n {
				return nil, nil, s.errf(fmt.Sprintf("sweep.axes[%d].values", ai),
					"zip mode needs equal lengths: axis %q has %d values, axis %q has %d",
					axes[ai].Param, len(vs), axes[0].Param, n)
			}
		}
		product = fmt.Sprint(n)
	} else if len(parsed) > 0 {
		lens := make([]string, len(parsed))
		for ai, vs := range parsed {
			n = min(n*len(vs), maxPlanCells+1)
			lens[ai] = fmt.Sprint(len(vs))
		}
		product = strings.Join(lens, " × ")
	}
	if n > maxPlanCells/members {
		return nil, nil, s.errf("sweep", "%s points × %d members is over the plan bound of %d cells",
			product, members, maxPlanCells)
	}

	points := make([]point, 0, n)
	if mode == "zip" {
		for i := 0; i < n; i++ {
			pt := point{display: make(map[string]any)}
			for ai, vs := range parsed {
				pt.values = append(pt.values, vs[i])
				pt.display[axes[ai].Param] = vs[i].display
			}
			points = append(points, pt)
		}
		return points, axisSet, nil
	}

	// Product: odometer over the axes, rightmost fastest.
	idx := make([]int, len(parsed))
	for {
		pt := point{display: make(map[string]any)}
		for ai, vs := range parsed {
			pt.values = append(pt.values, vs[idx[ai]])
			pt.display[axes[ai].Param] = vs[idx[ai]].display
		}
		points = append(points, pt)
		ai := len(parsed) - 1
		for ai >= 0 {
			idx[ai]++
			if idx[ai] < len(parsed[ai]) {
				break
			}
			idx[ai] = 0
			ai--
		}
		if ai < 0 {
			return points, axisSet, nil
		}
	}
}

// parseAxisValue decodes one axis value for its parameter. The
// parameter set below is the sweepable surface; base-config-only knobs
// (queue depths, drain watermarks) stay spec-level.
func parseAxisValue(param string, raw json.RawMessage) (axisValue, error) {
	strict := func(v any) error {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return fmt.Errorf("bad %s value %s: %v", param, raw, err)
		}
		return nil
	}
	intVal := func(apply func(*cell, int)) (axisValue, error) {
		var v int
		if err := strict(&v); err != nil {
			return axisValue{}, err
		}
		return axisValue{display: v, apply: func(c *cell) { apply(c, v) }}, nil
	}
	uintVal := func(apply func(*cell, uint64)) (axisValue, error) {
		var v uint64
		if err := strict(&v); err != nil {
			return axisValue{}, err
		}
		return axisValue{display: v, apply: func(c *cell) { apply(c, v) }}, nil
	}
	floatVal := func(apply func(*cell, float64)) (axisValue, error) {
		var v float64
		if err := strict(&v); err != nil {
			return axisValue{}, err
		}
		return axisValue{display: v, apply: func(c *cell) { apply(c, v) }}, nil
	}
	// A zero memory field means "inherit" (applyMem), so a swept 0
	// would run the inherited value under a row labelled 0.
	nonzero := func(av axisValue, err error) (axisValue, error) {
		if err == nil && (av.display == 0 || av.display == 0.0) {
			return axisValue{}, fmt.Errorf("%s must be nonzero: 0 leaves the inherited value in place", param)
		}
		return av, err
	}
	boolVal := func(apply func(*cell, bool)) (axisValue, error) {
		var v bool
		if err := strict(&v); err != nil {
			return axisValue{}, err
		}
		return axisValue{display: v, apply: func(c *cell) { apply(c, v) }}, nil
	}

	switch param {
	case "mitigation":
		var v string
		if err := strict(&v); err != nil {
			return axisValue{}, err
		}
		if !mitigation.Known(v) {
			return axisValue{}, fmt.Errorf("unknown mechanism %q (valid: %s, None)",
				v, strings.Join(mitigation.AllNames(), " "))
		}
		return axisValue{display: v, apply: func(c *cell) { c.cfg.Mitigation = v }}, nil
	case "nrh":
		return intVal(func(c *cell, v int) { c.cfg.NRH = v })
	case "pacram":
		if string(bytes.TrimSpace(raw)) == "null" {
			return axisValue{display: "None", apply: func(c *cell) { c.cfg.PaCRAM = nil }}, nil
		}
		var v PaCRAMSpec
		if err := strict(&v); err != nil {
			return axisValue{}, err
		}
		display := v.Label
		if display == "" {
			display = fmt.Sprintf("%s@%.2f", v.Module, v.Factor)
		}
		return axisValue{display: display, apply: func(c *cell) { vv := v; c.cfg.PaCRAM = &vv }}, nil
	case "pacram.module":
		var v string
		if err := strict(&v); err != nil {
			return axisValue{}, err
		}
		if _, err := chips.ByID(v); err != nil {
			return axisValue{}, err
		}
		return axisValue{display: v, apply: func(c *cell) { c.pacModule = v }}, nil
	case "pacram.factor":
		var v float64
		if err := strict(&v); err != nil {
			return axisValue{}, err
		}
		if _, err := factorIndex(v); err != nil {
			return axisValue{}, err
		}
		return axisValue{display: v, apply: func(c *cell) { c.pacFactor = v }}, nil
	case "periodicExtension":
		return boolVal(func(c *cell, v bool) { c.cfg.PeriodicExtension = v })
	case "periodicFactor":
		return floatVal(func(c *cell, v float64) { c.cfg.PeriodicFactor = v })
	case "instructions":
		return uintVal(func(c *cell, v uint64) { c.sim.Instructions = v })
	case "warmup":
		return uintVal(func(c *cell, v uint64) { c.sim.Warmup = v })
	case "seed":
		return uintVal(func(c *cell, v uint64) { c.sim.Seed = v })
	case "memory.profile":
		var v string
		if err := strict(&v); err != nil {
			return axisValue{}, err
		}
		if _, err := ddr.ProfileByName(v); err != nil {
			return axisValue{}, err
		}
		return axisValue{display: v, apply: func(c *cell) { c.mem.Profile = v }}, nil
	case "memory.channels":
		return nonzero(intVal(func(c *cell, v int) { c.mem.Channels = v }))
	case "memory.rows":
		return nonzero(intVal(func(c *cell, v int) { c.mem.Rows = v }))
	case "memory.ranks":
		return nonzero(intVal(func(c *cell, v int) { c.mem.Ranks = v }))
	case "memory.bankGroups":
		return nonzero(intVal(func(c *cell, v int) { c.mem.BankGroups = v }))
	case "memory.banksPerGroup":
		return nonzero(intVal(func(c *cell, v int) { c.mem.BanksPerGroup = v }))
	case "memory.mopWidth":
		return nonzero(intVal(func(c *cell, v int) { c.mem.MOPWidth = v }))
	case "memory.blastRadius":
		return nonzero(intVal(func(c *cell, v int) { c.mem.BlastRadius = v }))
	case "memory.refreshEnabled":
		return boolVal(func(c *cell, v bool) { vv := v; c.mem.RefreshEnabled = &vv })
	case "memory.trfcScale":
		return nonzero(floatVal(func(c *cell, v float64) { c.mem.TRFCScale = v }))
	case "memory.cpuFreqGHz":
		return nonzero(floatVal(func(c *cell, v float64) { c.mem.CPUFreqGHz = v }))
	}
	return axisValue{}, fmt.Errorf("unknown sweep parameter %q (have: mitigation nrh pacram pacram.module pacram.factor "+
		"periodicExtension periodicFactor "+
		"instructions warmup seed memory.profile memory.channels memory.rows memory.ranks memory.bankGroups "+
		"memory.banksPerGroup memory.mopWidth memory.blastRadius memory.refreshEnabled memory.trfcScale "+
		"memory.cpuFreqGHz)", param)
}
