package runner

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Tiered stacks store backends fastest-first (mem → disk → remote)
// behind the one Store interface:
//
//   - Get tries tiers in order and, on a hit, promotes the entry's
//     bytes into every faster tier (read-through promotion), so the
//     next ask is served at the fastest tier that missed.
//   - Put writes back to every tier, so a computed cell populates the
//     local cache and the shared origin in one step.
//   - A failing tier is skipped, not fatal: Get falls through to the
//     next tier, and the failure is reported on the returned error —
//     possibly alongside ok=true when a later tier hit — for the
//     caller to warn about. The degradation contract of every single
//     backend holds for the stack as a whole.
//
// Stats() aggregates the stack's own view (a hit at any tier is one
// tiered hit); PerTier() exposes the per-backend split plus the
// combinator's promotion count.
type Tiered struct {
	tiers []Store
	c     tierCounters
}

// NewTiered stacks tiers fastest-first. Nil tiers are dropped; at
// least one real tier is required.
func NewTiered(tiers ...Store) *Tiered {
	kept := make([]Store, 0, len(tiers))
	for _, t := range tiers {
		if t != nil {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		panic("runner: NewTiered needs at least one backend")
	}
	return &Tiered{tiers: kept, c: tierCounters{name: "tiered"}}
}

// tierName labels a tier in degradation messages.
func tierName(s Store) string { return s.Stats().Name }

// Get tries each tier in order, promoting a hit into the faster tiers
// that missed. Tier failures — on the way down and during promotion —
// come back joined on err, including when a later tier hit (ok=true).
func (t *Tiered) Get(hash string) (data []byte, ok bool, err error) {
	start := time.Now()
	defer func() { t.c.recordGet(start, ok, err) }()
	var errs []error
	for i, tier := range t.tiers {
		data, ok, terr := tier.Get(hash)
		if terr != nil {
			errs = append(errs, fmt.Errorf("%s tier: %w", tierName(tier), terr))
			continue
		}
		if !ok {
			continue
		}
		for _, faster := range t.tiers[:i] {
			if perr := faster.Put(hash, data); perr != nil {
				errs = append(errs, fmt.Errorf("promoting to %s tier: %w", tierName(faster), perr))
				continue
			}
			t.c.promotions.Add(1)
		}
		return data, true, errors.Join(errs...)
	}
	return nil, false, errors.Join(errs...)
}

// Put writes the envelope back to every tier, joining per-tier
// failures; any tier succeeding keeps the entry findable.
func (t *Tiered) Put(hash string, data []byte) (err error) {
	start := time.Now()
	defer func() { t.c.recordPut(start, err) }()
	var errs []error
	for _, tier := range t.tiers {
		if terr := tier.Put(hash, data); terr != nil {
			errs = append(errs, fmt.Errorf("%s tier: %w", tierName(tier), terr))
		}
	}
	return errors.Join(errs...)
}

// memo and setMemo forward to the first tier (see memoizer): a hit
// either comes from it or is promoted into it as the same slice, so
// that is where a decoded value belongs.
func (t *Tiered) memo(hash string, data []byte) *cellMemo {
	if m, ok := t.tiers[0].(memoizer); ok {
		return m.memo(hash, data)
	}
	return nil
}

func (t *Tiered) setMemo(hash string, data []byte, c *cellMemo) {
	if m, ok := t.tiers[0].(memoizer); ok {
		m.setMemo(hash, data, c)
	}
}

// Locate lists every tier's location for corrupt-entry warnings.
func (t *Tiered) Locate(hash string) string {
	parts := make([]string, 0, len(t.tiers))
	for _, tier := range t.tiers {
		if l, ok := tier.(Locator); ok {
			parts = append(parts, l.Locate(hash))
		}
	}
	return strings.Join(parts, " or ")
}

// Stats returns the stack-level counters: one hit per Get served by
// any tier, promotions included.
func (t *Tiered) Stats() TierStats { return t.c.snapshot() }

// PerTier returns each backend's own counters in stack order, followed
// by the stack-level aggregate. This is what the daemon's store-stats
// endpoint serves.
func (t *Tiered) PerTier() []TierStats {
	out := make([]TierStats, 0, len(t.tiers)+1)
	for _, tier := range t.tiers {
		out = append(out, tier.Stats())
	}
	return append(out, t.Stats())
}
