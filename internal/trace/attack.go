package trace

import (
	"fmt"

	"pacram/internal/xrand"
)

// AttackSpec parameterizes an adversarial RowHammer-style workload:
// a core that cycles activations over a small set of aggressor
// addresses as fast as the controller admits them, periodically
// reading a victim line between the aggressors. Unlike the synthetic
// catalog (which models benign programs), attackers maximize same-bank
// row conflicts, so they stress exactly the activation paths the
// mitigation mechanisms meter.
type AttackSpec struct {
	// Name identifies the workload ("" derives one from the shape).
	Name string
	// Sides is the number of aggressor addresses cycled round-robin
	// (2 = the classic double-sided pattern; 0 defaults to 2).
	Sides int
	// StrideBytes is the spacing between consecutive aggressor
	// addresses. The default 256KB advances the row index by one
	// within a single bank under the paper's SINGLE-CHANNEL MOP
	// address mapping (row bits sit above offset+column+rank+
	// bank-group+bank bits = 18), so consecutive aggressors are
	// same-bank row conflicts — the pattern RowHammer needs. The row
	// stride doubles with each channel doubling (the channel bits sit
	// below the row bits), so multi-channel callers must pass the
	// target mapping's ddr.Mapper.RowStrideBytes() explicitly; the
	// scenario compiler does this for unset strides. Aggressors sit
	// at even multiples of the stride so victims fall between them.
	StrideBytes int
	// Bubbles is the fixed non-memory instruction count between
	// accesses (0 = hammer at full speed).
	Bubbles int
	// VictimEvery interleaves one victim read after every VictimEvery
	// hammer accesses (0 = aggressors only).
	VictimEvery int
	// FootprintMB is the region the attack pattern is placed in
	// (0 defaults to 64MB); the base address is drawn from the seed.
	FootprintMB int
	// OpenRowReads issues this many extra column reads at consecutive
	// lines after every aggressor activation — a row-press-style
	// pattern that holds aggressor rows open longer per activation, so
	// disturbance grows while the activation count the
	// PRAC/Graphene/Hydra trackers meter stays low. Under the default
	// MOP-4 mapping the first three extra reads are same-row hits in
	// the aggressor's MOP group. The new fields are omitempty so specs
	// without them hash exactly as before they existed.
	OpenRowReads int `json:",omitempty"`
	// BurstAccesses, when positive, shapes the hammer into bursts:
	// after every BurstAccesses accesses the next record carries
	// RestBubbles extra bubbles. The quiet windows are aimed at
	// tracker reset boundaries — PRAC counters reset when a row is
	// refreshed, Graphene and Hydra reset per estimation window — so a
	// many-sided burst that stays just under the per-window threshold
	// resumes with a cleared tracker.
	BurstAccesses int `json:",omitempty"`
	// RestBubbles is the extra bubble count opening each post-burst
	// quiet window (requires BurstAccesses).
	RestBubbles int `json:",omitempty"`
}

// WithDefaults returns the spec with zero fields replaced by defaults,
// so generators and fingerprints see one canonical shape.
func (s AttackSpec) WithDefaults() AttackSpec {
	if s.Sides == 0 {
		s.Sides = 2
	}
	if s.StrideBytes == 0 {
		s.StrideBytes = 256 * 1024
	}
	if s.FootprintMB == 0 {
		s.FootprintMB = 64
	}
	if s.Name == "" {
		switch {
		case s.OpenRowReads > 0:
			s.Name = fmt.Sprintf("rowpress-%dside", s.Sides)
		case s.BurstAccesses > 0:
			s.Name = fmt.Sprintf("burst-%dside", s.Sides)
		default:
			s.Name = fmt.Sprintf("hammer-%dside", s.Sides)
		}
	}
	return s
}

// Validate checks the spec (after default substitution).
func (s AttackSpec) Validate() error {
	s = s.WithDefaults()
	switch {
	case s.Sides < 1:
		return fmt.Errorf("trace: %s: attacker needs Sides >= 1", s.Name)
	case s.StrideBytes < lineBytes:
		return fmt.Errorf("trace: %s: attacker stride %dB below line size %dB", s.Name, s.StrideBytes, lineBytes)
	case s.StrideBytes%lineBytes != 0:
		return fmt.Errorf("trace: %s: attacker stride %dB not line-aligned", s.Name, s.StrideBytes)
	case s.Bubbles < 0:
		return fmt.Errorf("trace: %s: negative bubble count", s.Name)
	case s.VictimEvery < 0:
		return fmt.Errorf("trace: %s: negative victim interval", s.Name)
	case s.FootprintMB < 1:
		return fmt.Errorf("trace: %s: footprint must be positive", s.Name)
	case uint64(2*s.Sides+1)*uint64(s.StrideBytes) > uint64(s.FootprintMB)<<20:
		return fmt.Errorf("trace: %s: attack pattern (%d sides x %dB stride) exceeds %dMB footprint",
			s.Name, s.Sides, s.StrideBytes, s.FootprintMB)
	case s.OpenRowReads < 0:
		return fmt.Errorf("trace: %s: negative open-row read count", s.Name)
	case (s.OpenRowReads+1)*lineBytes > s.StrideBytes:
		return fmt.Errorf("trace: %s: %d open-row reads overrun the %dB aggressor stride",
			s.Name, s.OpenRowReads, s.StrideBytes)
	case s.BurstAccesses < 0:
		return fmt.Errorf("trace: %s: negative burst length", s.Name)
	case s.RestBubbles < 0:
		return fmt.Errorf("trace: %s: negative rest bubble count", s.Name)
	case s.RestBubbles > 0 && s.BurstAccesses == 0:
		return fmt.Errorf("trace: %s: restBubbles needs burstAccesses to delimit the bursts", s.Name)
	}
	return nil
}

// attacker implements Generator for an AttackSpec. Aggressor i lives
// at base + 2*i*stride; victims at the odd multiples in between.
type attacker struct {
	spec AttackSpec
	rng  *xrand.Rand
	base uint64
	idx  int
	hits int // hammer accesses since the last victim read

	lastAgg   uint64 // most recent aggressor address (open-row reads target it)
	press     int    // open-row reads still owed for lastAgg
	sinceRest int    // accesses emitted since the last rest window
}

// NewAttacker builds a deterministic adversarial generator: two built
// from the same spec and seed emit the same stream.
func NewAttacker(spec AttackSpec, seed uint64) (Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.WithDefaults()
	g := &attacker{
		spec: spec,
		rng:  xrand.Derive(seed, 0xA77, hashName(spec.Name)),
	}
	span := uint64(2*spec.Sides+1) * uint64(spec.StrideBytes)
	slots := (uint64(spec.FootprintMB)<<20 - span) / uint64(spec.StrideBytes)
	g.base = (g.rng.Uint64() % (slots + 1)) * uint64(spec.StrideBytes)
	return g, nil
}

func (g *attacker) Name() string { return g.spec.Name }

func (g *attacker) Next() Record {
	rec := Record{Bubbles: g.spec.Bubbles}
	if g.spec.BurstAccesses > 0 && g.sinceRest >= g.spec.BurstAccesses {
		rec.Bubbles += g.spec.RestBubbles
		g.sinceRest = 0
	}
	g.sinceRest++
	if g.press > 0 {
		// Row-press tail: consecutive lines after the last aggressor
		// activation, keeping its row open.
		k := g.spec.OpenRowReads - g.press + 1
		g.press--
		rec.Addr = g.lastAgg + uint64(k)*lineBytes
		return rec
	}
	if g.spec.VictimEvery > 0 && g.hits >= g.spec.VictimEvery {
		g.hits = 0
		// Read one of the rows between aggressors, chosen at random so
		// every victim is sampled over time.
		v := 2*uint64(g.rng.Intn(g.spec.Sides)) + 1
		rec.Addr = g.base + v*uint64(g.spec.StrideBytes)
		return rec
	}
	rec.Addr = g.base + 2*uint64(g.idx)*uint64(g.spec.StrideBytes)
	g.idx = (g.idx + 1) % g.spec.Sides
	g.hits++
	g.lastAgg = rec.Addr
	g.press = g.spec.OpenRowReads
	return rec
}

// Phase is one leg of a phased workload: a synthetic spec that runs
// for a fixed number of memory accesses before the stream moves on.
type Phase struct {
	Spec     Spec
	Accesses int
}

// phased implements Generator by cycling through per-phase synthetic
// generators (datacenter-style diurnal or batch/serve alternation).
// Returning to a phase resumes its stream where it left off.
type phased struct {
	name   string
	phases []Phase
	gens   []Generator
	cur    int
	left   int
}

// NewPhased builds a generator that cycles through the phases. Each
// phase's sub-stream is seeded independently; two built from the same
// phases and seed emit the same stream.
func NewPhased(name string, phases []Phase, seed uint64) (Generator, error) {
	if name == "" {
		return nil, fmt.Errorf("trace: phased workload needs a name")
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("trace: %s: phased workload needs at least one phase", name)
	}
	g := &phased{name: name, phases: phases}
	for i, p := range phases {
		if p.Accesses < 1 {
			return nil, fmt.Errorf("trace: %s: phase %d needs Accesses >= 1", name, i)
		}
		// Phase seeds are derived, not offset: a linear seed+i*K here
		// would collide with sim's per-core base+core*K lattice and
		// make core c's phase i replay core c+i's workload stream.
		sub, err := New(p.Spec, xrand.Derive(seed, 0x9A5ED, uint64(i)).Uint64())
		if err != nil {
			return nil, fmt.Errorf("trace: %s: phase %d: %w", name, i, err)
		}
		g.gens = append(g.gens, sub)
	}
	g.left = phases[0].Accesses
	return g, nil
}

func (g *phased) Name() string { return g.name }

func (g *phased) Next() Record {
	if g.left == 0 {
		g.cur = (g.cur + 1) % len(g.gens)
		g.left = g.phases[g.cur].Accesses
	}
	g.left--
	return g.gens[g.cur].Next()
}
