package memsys

import (
	"slices"
	"testing"

	"pacram/internal/ddr"
	"pacram/internal/xrand"
)

// rowhit_test.go checks the row-hit index, and readyHits' walk over
// it, against the queue scans it replaced. refFirstReadyColumn and
// refColumnHorizon are those scans, kept verbatim in behaviour: they
// walk every queued request and never consult the hit index or the
// bankGroup table.

// refFirstReadyColumn is the queue-scan FR-FCFS column pick: the oldest
// request in q whose row is open and whose column command can issue.
func (c *Controller) refFirstReadyColumn(q []*Request) (int, int) {
	for i, req := range q {
		bk := &c.banks[req.bank]
		if bk.openRow == req.Addr.Row && c.refCanColumn(req, bk) {
			return i, req.bank
		}
	}
	return -1, -1
}

func (c *Controller) refCanColumn(req *Request, bk *bank) bool {
	if c.cycle < bk.busyTill {
		return false
	}
	if c.cycle < c.bgColReady[c.refGroup(req)] {
		return false
	}
	if req.Write {
		return c.cycle >= bk.wrReady && c.cycle+c.cCWL >= c.busUntil
	}
	return c.cycle >= bk.rdReady && c.cycle+c.cCL >= c.busUntil
}

// refGroup derives the dense bank-group index from the address.
func (c *Controller) refGroup(req *Request) int {
	g := c.cfg.Geometry
	return (req.Addr.Channel*g.Ranks+req.Addr.Rank)*g.BankGroups + req.Addr.BankGroup
}

// refColumnHorizon is NextEvent's queue-scan column section: every
// row-hit request's column-ready deadline, deduplicated per bank.
func (c *Controller) refColumnHorizon(write bool) uint64 {
	q, busAt := c.readQ, satSub(c.busUntil, c.cCL)
	if write {
		q, busAt = c.writeQ, satSub(c.busUntil, c.cCWL)
	}
	h := ^uint64(0)
	seen := make([]bool, len(c.banks))
	for _, req := range q {
		bk := &c.banks[req.bank]
		if bk.openRow != req.Addr.Row || seen[req.bank] {
			continue
		}
		seen[req.bank] = true
		colReady := bk.rdReady
		if write {
			colReady = bk.wrReady
		}
		h = min(h, max(bk.busyTill, colReady, c.bgColReady[c.refGroup(req)], busAt))
	}
	return h
}

// checkRowHitIndex recounts every bank's row hits from the queues and
// requires the index (counts and both bitsets) to equal the recount.
func checkRowHitIndex(t *testing.T, c *Controller, when string) {
	t.Helper()
	var rd, wr [128]int // the widest geometry below has 128 banks
	for _, q := range [][]*Request{c.readQ, c.writeQ} {
		for _, req := range q {
			b := c.cfg.Geometry.FlatBank(req.Addr)
			if req.bank != b {
				t.Fatalf("%s @%d: request %+v cached bank %d, want %d", when, c.cycle, req.Addr, req.bank, b)
			}
			if c.banks[b].openRow == req.Addr.Row {
				if req.Write {
					wr[b]++
				} else {
					rd[b]++
				}
			}
		}
	}
	for b := range c.banks {
		bit := uint64(1) << (b & 63)
		for _, h := range []struct {
			kind    string
			idx     *hitIndex
			recount int
		}{{"read", &c.rdHits, rd[b]}, {"write", &c.wrHits, wr[b]}} {
			if h.idx.count[b] != h.recount || (h.idx.set[b>>6]&bit != 0) != (h.recount > 0) {
				t.Fatalf("%s @%d: bank %d %s hits: index %d (bit %v), recount %d",
					when, c.cycle, b, h.kind, h.idx.count[b], h.idx.set[b>>6]&bit != 0, h.recount)
			}
		}
	}
}

// checkAgainstReference compares readyHits, in both modes, with the
// queue scans on the controller's current state.
func checkAgainstReference(t *testing.T, c *Controller) {
	t.Helper()
	floor := c.cycle + 1 // NextEvent clamps every deadline here
	for _, write := range []bool{false, true} {
		q := c.readQ
		if write {
			q = c.writeQ
		}
		gi, gb := -1, -1
		if _, i := c.readyHits(write, true); i >= 0 {
			gi, gb = i, q[i].bank
		}
		wi, wb := c.refFirstReadyColumn(q)
		if gi != wi || gb != wb {
			t.Fatalf("@%d write=%v: readyHits picks (%d, %d), queue scan (%d, %d)", c.cycle, write, gi, gb, wi, wb)
		}
		at, _ := c.readyHits(write, false)
		if got, want := max(at, floor), max(c.refColumnHorizon(write), floor); got != want {
			t.Fatalf("@%d write=%v: readyHits dry run = %d, queue scan = %d", c.cycle, write, got, want)
		}
	}
}

// mixedMitigation asks for preventive refreshes, RFMs and Hydra-style
// metadata traffic on a fixed rotation of demand ACTs, so rows close
// under VRR and RFM precharges and metadata requests land in both
// queues.
type mixedMitigation struct{ acts int }

func (m *mixedMitigation) Name() string { return "mixed" }
func (m *mixedMitigation) OnActivate(bank, row int) Action {
	m.acts++
	switch {
	case m.acts%5 == 0:
		return Action{RefreshRows: []int{row - 1, row + 1}}
	case m.acts%4 == 0:
		return Action{RFM: true}
	case m.acts%3 == 0:
		return Action{MetaReads: 2, MetaWrites: 1}
	}
	return Action{}
}
func (m *mixedMitigation) OnRefreshWindow() {}

// TestRowHitIndexDifferential drives random mixed traffic and, before
// every Tick, requires the indexed column pick and column horizon to
// equal the queue scans; after every Issue and Tick the index must
// equal a recount from the queues. The traffic concentrates on a few
// rows per bank (plus the metadata row) so hits pile up, alternates
// read-heavy and write-burst phases so the drain flag flips, re-reads
// recently written lines so reads forward from the write queue, and
// leaps idle stretches the way the event-horizon engine does. The wide
// geometry has 128 banks, so the bitsets span two words.
func TestRowHitIndexDifferential(t *testing.T) {
	wide := ddr.PaperSystem()
	wide.Ranks, wide.BanksPerGroup = 4, 4
	for _, tc := range []struct {
		name string
		geo  ddr.Geometry
	}{
		{"paper", ddr.PaperSystem()},
		{"wide-128-banks", wide},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Geometry = tc.geo
			cfg.Geometry.Rows = 1024
			// A short refresh interval so REF precharges open rows often.
			cfg.Timing.TREFI /= 2
			c := newCtrl(t, cfg, &mixedMitigation{}, nil)
			g := cfg.Geometry
			rng := xrand.New(0x20A1)
			var written []uint64
			var forwards, drainFlips, refCloses, rfmCloses, vrrCloses int
			draining := c.draining

			issue := func(a ddr.Address, write bool) {
				addr := c.mapper.Encode(a)
				if write {
					if c.Issue(addr, true, nil) {
						written = append(written, addr)
					}
				} else {
					c.Issue(addr, false, func() {})
				}
				checkRowHitIndex(t, c, "after Issue")
			}
			// Half the traffic goes to four hot banks, one per quarter of
			// the flat bank range (so both bitset words on the wide
			// geometry), mostly to one row: hits pile up there faster
			// than the bus drains them.
			randAddr := func() ddr.Address {
				nb := uint64(g.TotalBanks())
				b := int(rng.Uint64() % nb)
				row := int(rng.Uint64() % 2)
				if rng.Uint64()%2 == 0 {
					k := int(rng.Uint64() % 4)
					b = k*int(nb)/4 + k*3
					row = 0
					if rng.Uint64()%8 == 0 {
						row = 1
					}
				}
				a := g.BankOfFlat(b)
				a.Row = row
				if rng.Uint64()%8 == 0 {
					a.Row = g.Rows - 1 // the metadata row
				}
				a.Column = int(rng.Uint64() % uint64(g.Columns))
				return a
			}

			for i := 0; i < 100_000; i++ {
				switch phase := (c.cycle / 2048) % 4; phase {
				case 0, 1: // read-heavy with occasional writes
					if rng.Uint64()%4 == 0 {
						issue(randAddr(), rng.Uint64()%5 == 0)
					}
				case 2: // write burst: fills the write queue past DrainHi
					if rng.Uint64()%2 == 0 {
						issue(randAddr(), true)
					}
				case 3: // re-read written lines (forwarding), then go idle
					if n := len(written); n > 0 && rng.Uint64()%4 == 0 {
						addr := written[n-1-int(rng.Uint64()%uint64(min(n, 32)))]
						line := addr &^ uint64(g.LineBytes-1)
						for _, w := range c.writeQ {
							if w.Line == line && len(c.readQ) < cfg.ReadQueue {
								forwards++
								break
							}
						}
						c.Issue(addr, false, func() {})
						checkRowHitIndex(t, c, "after forwarding Issue")
					} else if rng.Uint64()%64 == 0 {
						// Leap an idle stretch, as the event-horizon engine does.
						if ne := c.NextEvent(); ne > c.cycle+1 {
							c.AdvanceTo(ne - 1)
						}
					}
				}
				if len(written) > 4096 {
					written = append(written[:0], written[2048:]...)
				}

				checkAgainstReference(t, c)
				var open, hits [128]bool
				for b := range c.banks {
					open[b] = c.banks[b].openRow != -1
					hits[b] = c.rdHits.count[b]+c.wrHits.count[b] > 0
				}

				c.Tick()
				checkRowHitIndex(t, c, "after Tick")

				if c.draining != draining {
					drainFlips++
					draining = c.draining
				}
				// A maintenance precharge leaves its request pending: the
				// REF, RFM or VRR itself issues on a later tick.
				for b := range c.banks {
					if !open[b] || c.banks[b].openRow != -1 || !hits[b] {
						continue
					}
					switch {
					case c.ranks[c.bankRank(b)].refPending:
						refCloses++
					case slices.ContainsFunc(c.rfmQ, func(r rfmReq) bool { return r.bank == b }):
						rfmCloses++
					case slices.ContainsFunc(c.vrrQ, func(r vrrReq) bool { return r.bank == b }):
						vrrCloses++
					}
				}
			}

			st := c.Stats()
			t.Logf("reads=%d writes=%d refs=%d rfms=%d vrrs=%d meta=%d/%d forwards=%d drainFlips=%d closes ref/rfm/vrr=%d/%d/%d",
				st.Reads, st.Writes, st.Refs, st.RFMs, st.VRRs, st.MetaReads, st.MetaWrites,
				forwards, drainFlips, refCloses, rfmCloses, vrrCloses)
			for name, n := range map[string]int{
				"REF precharges over queued hits": refCloses,
				"RFM precharges over queued hits": rfmCloses,
				"VRR precharges over queued hits": vrrCloses,
				"metadata reads":                  int(st.MetaReads),
				"metadata writes":                 int(st.MetaWrites),
				"write-to-read forwards":          forwards,
				"drain flips":                     drainFlips,
			} {
				if n == 0 {
					t.Errorf("traffic never exercised %s", name)
				}
			}
		})
	}
}
