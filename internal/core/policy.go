package pacram

import "math"

// Policy is PaCRAM's runtime state: the fully-restored (FR) bit vector
// (§8.3) with one bit per DRAM row per bank, plus the periodic reset
// that bounds consecutive partial restorations. It implements
// memsys.RefreshPolicy.
//
// State machine per row (paper's F/P states):
//   - bit clear (F): the next preventive refresh uses nominal latency
//     (full restoration) and sets the bit;
//   - bit set (P): preventive refreshes use the reduced latency.
//
// Every tFCRI the whole vector resets to F. When the configuration's
// tFCRI exceeds the refresh window, periodic refresh provides the full
// restoration and every preventive refresh is partial.
type Policy struct {
	cfg   Config
	banks int
	rows  int

	fr    [][]uint64 // per bank: rows/64 words
	epoch int64      // current tFCRI epoch (-1 until first use)
}

// NewPolicy allocates the FR vector for a subsystem of banks x rows.
func NewPolicy(cfg Config, banks, rows int) *Policy {
	p := &Policy{cfg: cfg, banks: banks, rows: rows, epoch: -1}
	if !cfg.AlwaysPartial() {
		p.fr = make([][]uint64, banks)
		words := (rows + 63) / 64
		for b := range p.fr {
			p.fr[b] = make([]uint64, words)
		}
	}
	return p
}

// Config returns the operating point.
func (p *Policy) Config() Config { return p.cfg }

// MetadataBits returns the FR vector size in bits (the §8.4 area
// story: one bit per row, independent of NRH).
func (p *Policy) MetadataBits() int {
	if p.fr == nil {
		return 0
	}
	return p.banks * p.rows
}

// VRRHold implements memsys.RefreshPolicy: it returns the restoration
// hold time for a preventive refresh of (bank, row) and advances the
// row's F/P state.
func (p *Policy) VRRHold(bank, row int, nowNs float64) float64 {
	if p.cfg.AlwaysPartial() {
		return p.cfg.ReducedTRASNs
	}
	p.maybeReset(nowNs)
	if bank < 0 || bank >= p.banks || row < 0 || row >= p.rows {
		// Out-of-range rows (clamped blast radius): be conservative.
		return p.cfg.NominalTRASNs
	}
	w, m := row/64, uint64(1)<<(row%64)
	if p.fr[bank][w]&m != 0 {
		return p.cfg.ReducedTRASNs
	}
	p.fr[bank][w] |= m
	return p.cfg.NominalTRASNs
}

// PeriodicScale implements memsys.RefreshPolicy: plain PaCRAM leaves
// periodic refresh latency nominal (footnote 5); see PeriodicPolicy
// for the Appendix B extension.
func (p *Policy) PeriodicScale(float64) float64 { return 1.0 }

// maybeReset pulls every row back to the F state at tFCRI boundaries.
func (p *Policy) maybeReset(nowNs float64) {
	if math.IsInf(p.cfg.TFCRINs, 1) {
		return
	}
	epoch := int64(nowNs / p.cfg.TFCRINs)
	if epoch == p.epoch {
		return
	}
	p.epoch = epoch
	for b := range p.fr {
		for w := range p.fr[b] {
			p.fr[b][w] = 0
		}
	}
}

// PeriodicPolicy extends a Policy with the Appendix B optimization:
// periodic refreshes also run at reduced latency, with every
// (NPCR+1)-th refresh window performed at nominal latency to fully
// restore all cells. A single counter per controller suffices.
type PeriodicPolicy struct {
	*Policy
	// windows counts completed reduced-latency refresh windows.
	windows int64
}

// NewPeriodicPolicy wraps a Policy with reduced periodic refreshes.
func NewPeriodicPolicy(p *Policy) *PeriodicPolicy {
	return &PeriodicPolicy{Policy: p}
}

// PeriodicScale implements memsys.RefreshPolicy: the scale of tRFC
// under partial restoration, with the NPCR-bounded nominal window.
func (p *PeriodicPolicy) PeriodicScale(nowNs float64) float64 {
	window := int64(nowNs / p.cfg.TREFWNs)
	npcr := int64(p.cfg.NPCR)
	if npcr > 0 && window != p.windows && (window%(npcr+1)) == npcr {
		// Nominal window to fully restore every row.
		return 1.0
	}
	p.windows = window
	// tRFC is dominated by sequential row restorations; it scales with
	// (tRAS(Red)+tRP)/(tRAS(Nom)+tRP).
	return (p.cfg.ReducedTRASNs + p.cfg.TRPNs) / (p.cfg.NominalTRASNs + p.cfg.TRPNs)
}
