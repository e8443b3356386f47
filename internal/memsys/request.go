// Package memsys implements the cycle-level DDR5 memory system of the
// paper's evaluation (Table 2), organized in two layers:
//
//   - Controller models ONE channel: 64-entry read/write queues,
//     FR-FCFS scheduling, periodic refresh, RFM support, and a
//     preventive-refresh (VRR) path whose charge-restoration latency
//     is programmable per refresh — the hook PaCRAM uses. RowHammer
//     mitigation mechanisms plug in as activation observers.
//   - System owns N such Controllers and is what cores and the
//     simulation engine talk to: it decodes each request's channel
//     bits once (MOP address mapping over the full geometry), routes
//     to the owning channel, ticks all channels in lockstep, and
//     aggregates statistics (sum over channels) and the event horizon
//     (min over channels).
//
// Mitigation state is strictly per channel: each channel carries its
// own mechanism instance, refresh schedule and RFM queue, and a
// tracker never observes another channel's activations — mirroring
// the per-channel controller organization of real systems. The
// paper's evaluation is the Channels = 1 special case, for which a
// System is byte-identical to the bare Controller.
package memsys

import (
	"pacram/internal/ddr"
)

// Request is one in-flight memory request.
type Request struct {
	Addr    ddr.Address
	Line    uint64 // line-aligned physical address (for forwarding)
	Write   bool
	Done    func() // called at data return (reads); may be nil
	Arrival uint64 // cycle the request entered the queue
	Meta    bool   // metadata traffic (e.g. Hydra's RCT accesses)

	// bank caches the flat bank index of Addr: FR-FCFS's column pick,
	// the FCFS head and the row-hit index's ACT recount consult it.
	bank int
}

// completion is a scheduled callback.
type completion struct {
	at uint64
	fn func()
}

// completionHeap is a min-heap of completions by cycle. The sift
// routines are hand-rolled rather than container/heap so schedule and
// pop move concrete structs instead of boxing each completion in an
// interface (one heap allocation per push and per pop, on the hottest
// path the controller has). The sift order replicates container/heap
// exactly, so the firing order of same-cycle completions is unchanged.
type completionHeap []completion

func (h *completionHeap) schedule(at uint64, fn func()) {
	*h = append(*h, completion{at: at, fn: fn})
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if s[i].at <= s[j].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the earliest completion. The vacated slot is
// zeroed so the backing array does not retain the callback.
func (h *completionHeap) pop() completion {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].at < s[j].at {
			j = j2
		}
		if s[i].at <= s[j].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	c := s[n]
	s[n] = completion{}
	*h = s[:n]
	return c
}

// runDue fires all completions due at or before cycle, returning how
// many fired (the controller's event accounting).
func (h *completionHeap) runDue(cycle uint64) int {
	n := 0
	for len(*h) > 0 && (*h)[0].at <= cycle {
		c := h.pop()
		c.fn()
		n++
	}
	return n
}

// Stats aggregates controller activity for performance, energy and
// Fig. 3's busy-fraction metric.
type Stats struct {
	Cycles uint64

	Acts, Pres, Reads, Writes uint64
	Refs, RFMs, VRRs          uint64
	VRRFull, VRRPartial       uint64
	MetaReads, MetaWrites     uint64

	// Busy-cycle accounting, in bank-cycles (one bank occupied for one
	// cycle). Fig. 3 reports PrevRefBusy / (Cycles * banks).
	DemandBusy  uint64
	RefBusy     uint64
	PrevRefBusy uint64 // VRR + RFM service time

	// Restoration time integrals (ns), for the energy model.
	VRRRestoreNs float64
	RefRestoreNs float64

	ReadLatencySum uint64
	ReadCount      uint64
}

// AvgReadLatency returns the mean read latency in cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.ReadCount == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.ReadCount)
}

// PrevRefBusyFraction returns the fraction of execution time during
// which a DRAM bank is busy performing preventive refreshes (the
// Fig. 3 metric), averaged over banks.
func (s Stats) PrevRefBusyFraction(banks int) float64 {
	if s.Cycles == 0 || banks == 0 {
		return 0
	}
	return float64(s.PrevRefBusy) / (float64(s.Cycles) * float64(banks))
}
