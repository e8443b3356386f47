package memsys

// bank tracks the timing state of one DRAM bank, in CPU cycles.
type bank struct {
	openRow int // -1 when precharged

	actReady uint64 // earliest ACT
	preReady uint64 // earliest PRE (tRAS from last ACT)
	rdReady  uint64 // earliest RD (tRCD from ACT; tCCD chained)
	wrReady  uint64 // earliest WR
	busyTill uint64 // blocked by REF/RFM/VRR service

	// lastAggressor is the most recently activated row; RFM-based
	// mitigations refresh its neighbourhood.
	lastAggressor int
}

func (b *bank) reset() {
	b.openRow = -1
	b.lastAggressor = -1
}

// rank tracks rank-level constraints: tFAW, tRRD, refresh.
type rank struct {
	lastActs   [4]uint64 // ring of the last four ACT cycles (tFAW)
	actIdx     int
	lastAct    uint64 // tRRD
	refPending bool
	nextRefAt  uint64
	busyTill   uint64 // REF/RFM in progress
}

// recordACT notes an ACT at cycle for tFAW/tRRD tracking.
func (r *rank) recordACT(cycle uint64) {
	r.lastActs[r.actIdx] = cycle
	r.actIdx = (r.actIdx + 1) % len(r.lastActs)
	r.lastAct = cycle
}
