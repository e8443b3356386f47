// Package trace provides the workloads driving the system-level
// evaluation. The paper replays SimPoint memory traces of SPEC
// CPU2006/2017, TPC, MediaBench and YCSB; those traces are not
// redistributable, so this package generates synthetic traces from
// per-workload parameters (memory intensity, row-buffer locality, bank
// parallelism, footprint, read/write mix) spanning the same behaviour
// space. The 62-workload catalog and the 60 four-core mixes mirror the
// paper's workload counts.
package trace

import (
	"fmt"

	"pacram/internal/xrand"
)

// Record is one trace entry: Bubbles non-memory instructions followed
// by one memory access. This matches the shape of the instruction
// traces Ramulator-style simulators replay.
type Record struct {
	Bubbles int
	Addr    uint64 // byte address, line aligned
	Write   bool
}

// Generator produces an infinite instruction stream.
type Generator interface {
	// Next returns the next trace record.
	Next() Record
	// Name identifies the workload.
	Name() string
}

// AccessPattern classifies the address behaviour of a workload.
type AccessPattern uint8

const (
	// PatternStream walks memory sequentially in long bursts (high
	// row-buffer locality), like streaming kernels.
	PatternStream AccessPattern = iota
	// PatternRandom issues uniformly random accesses over the
	// footprint (row-buffer hostile), like pointer chasing.
	PatternRandom
	// PatternZipf concentrates accesses on hot lines with a heavy
	// tail, like transaction processing and key-value serving.
	PatternZipf
	// PatternMixed alternates streaming bursts with random excursions.
	PatternMixed
)

// String names the pattern.
func (p AccessPattern) String() string {
	switch p {
	case PatternStream:
		return "stream"
	case PatternRandom:
		return "random"
	case PatternZipf:
		return "zipf"
	case PatternMixed:
		return "mixed"
	}
	return "unknown"
}

// Spec parameterizes a synthetic workload.
type Spec struct {
	Name string
	// BubbleMean is the mean number of non-memory instructions between
	// memory accesses; lower means more memory intensive (an LLC MPKI
	// of m corresponds roughly to 1000/m bubbles).
	BubbleMean int
	// Pattern selects the address behaviour.
	Pattern AccessPattern
	// FootprintMB is the working-set size.
	FootprintMB int
	// BurstLen is the number of sequential lines per streaming burst
	// (stream/mixed patterns).
	BurstLen int
	// WriteFrac is the fraction of memory accesses that are writes.
	WriteFrac float64
	// ZipfTheta is the skew for PatternZipf.
	ZipfTheta float64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("trace: spec needs a name")
	case s.BubbleMean < 0:
		return fmt.Errorf("trace: %s: negative bubble mean", s.Name)
	case s.FootprintMB <= 0:
		return fmt.Errorf("trace: %s: footprint must be positive", s.Name)
	case s.WriteFrac < 0 || s.WriteFrac > 1:
		return fmt.Errorf("trace: %s: write fraction out of [0,1]", s.Name)
	case s.BurstLen < 1 && (s.Pattern == PatternStream || s.Pattern == PatternMixed):
		return fmt.Errorf("trace: %s: streaming spec needs BurstLen >= 1", s.Name)
	}
	return nil
}

const lineBytes = 64

// synthetic implements Generator for a Spec.
type synthetic struct {
	spec Spec
	rng  *xrand.Rand
	zipf *xrand.Zipf

	lines     uint64 // footprint in lines
	cursor    uint64 // current line for streaming
	burstLeft int
}

// New builds a deterministic generator for the spec with the given
// seed: two built from the same spec and seed emit the same stream.
func New(spec Spec, seed uint64) (Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &synthetic{
		spec:  spec,
		rng:   xrand.Derive(seed, 0x77, hashName(spec.Name)),
		lines: uint64(spec.FootprintMB) * 1024 * 1024 / lineBytes,
	}
	if spec.Pattern == PatternZipf {
		theta := spec.ZipfTheta
		if theta <= 0 {
			theta = 0.99
		}
		g.zipf = xrand.NewZipf(int64(g.lines), theta)
	}
	return g, nil
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (g *synthetic) Name() string { return g.spec.Name }

func (g *synthetic) Next() Record {
	rec := Record{
		Bubbles: g.bubbles(),
		Write:   g.rng.Bool(g.spec.WriteFrac),
	}
	rec.Addr = g.nextLine() * lineBytes
	return rec
}

// bubbles draws a geometric-ish bubble count with the configured mean.
func (g *synthetic) bubbles() int {
	m := g.spec.BubbleMean
	if m == 0 {
		return 0
	}
	// Uniform in [m/2, 3m/2] keeps the mean while avoiding the long
	// geometric tail that makes short simulations noisy.
	return m/2 + g.rng.Intn(m+1)
}

func (g *synthetic) nextLine() uint64 {
	switch g.spec.Pattern {
	case PatternStream:
		return g.streamLine()
	case PatternRandom:
		return g.rng.Uint64() % g.lines
	case PatternZipf:
		// Spread hot ranks over the footprint with a fixed odd
		// multiplier so hot lines are not physically clustered.
		rank := uint64(g.zipf.Next(g.rng))
		return (rank * 2654435761) % g.lines
	case PatternMixed:
		if g.rng.Bool(0.3) {
			return g.rng.Uint64() % g.lines
		}
		return g.streamLine()
	}
	return 0
}

func (g *synthetic) streamLine() uint64 {
	if g.burstLeft == 0 {
		g.cursor = g.rng.Uint64() % g.lines
		g.burstLeft = g.spec.BurstLen
	}
	line := g.cursor
	g.cursor = (g.cursor + 1) % g.lines
	g.burstLeft--
	return line
}
