package memsys

// hitIndex is one queue's half of the controller's row-hit index:
// count[b] is the number of queued requests whose row is bank b's open
// row, and set has bit b on exactly when count[b] is nonzero. The
// scheduler's column stage (readyHits, in Tick and in NextEvent's dry
// run alike) walks set instead of the queue: every column gate except
// the row match is per bank (bank timing, its group's tCCD_L, the
// bus), so the banks with queued hits are the only candidates.
//
// The invariant — count and set always equal a recount from the queue —
// holds because the row of a queued request only starts or stops
// matching when its bank opens or closes a row: enqueue counts a
// request that hits, a column command uncounts the hit it serves, PRE
// zeroes the bank, and ACT recounts the one bank it opens
// (TestRowHitIndexDifferential checks it after every Issue and Tick).
type hitIndex struct {
	count []int
	set   []uint64
}

func newHitIndex(banks int) hitIndex {
	return hitIndex{count: make([]int, banks), set: make([]uint64, (banks+63)/64)}
}

func (h *hitIndex) add(b int) {
	h.count[b]++
	h.set[b>>6] |= 1 << (b & 63)
}

func (h *hitIndex) remove(b int) {
	if h.count[b]--; h.count[b] == 0 {
		h.set[b>>6] &^= 1 << (b & 63)
	}
}

func (h *hitIndex) reset(b, n int) {
	h.count[b] = n
	if n > 0 {
		h.set[b>>6] |= 1 << (b & 63)
	} else {
		h.set[b>>6] &^= 1 << (b & 63)
	}
}

// hits returns the row-hit index of the read or write queue.
func (c *Controller) hits(write bool) *hitIndex {
	if write {
		return &c.wrHits
	}
	return &c.rdHits
}

// recountHits rebuilds bank b's hit counts from the queues after an
// ACT opened row. The bank was closed until then, so both were zero.
func (c *Controller) recountHits(b, row int) {
	for _, write := range []bool{false, true} {
		q := c.readQ
		if write {
			q = c.writeQ
		}
		n := 0
		for _, req := range q {
			if req.bank == b && req.Addr.Row == row {
				n++
			}
		}
		c.hits(write).reset(b, n)
	}
}
