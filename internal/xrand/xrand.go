// Package xrand provides a small, fast, deterministic pseudo-random
// number generator used throughout the PaCRAM reproduction.
//
// Every experiment in this repository must be reproducible from a
// single integer seed. The standard library's math/rand/v2 would work,
// but characterization sweeps need cheap, collision-resistant stream
// *splitting* (one independent stream per module, per row, per cell)
// which is most naturally expressed with splitmix64-seeded
// xoshiro256** generators derived from (seed, label...) tuples.
package xrand

import (
	"math"
	"sync"
	"sync/atomic"
)

// splitmix64 advances the given state and returns the next value of the
// splitmix64 sequence. It is used both as a seeding function for
// xoshiro256** and as a cheap hash for stream derivation.
func splitmix64(x uint64) (uint64, uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return x, z
}

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New or Derive.
type Rand struct {
	s [4]uint64

	// Box–Muller spare variate cache for NormFloat64.
	spare     float64
	haveSpare bool
}

// New returns a generator seeded from seed via splitmix64, as
// recommended by the xoshiro authors.
func New(seed uint64) *Rand {
	var r Rand
	st := seed
	for i := range r.s {
		st, r.s[i] = splitmix64(st)
	}
	return &r
}

// Derive returns an independent generator deterministically derived
// from seed and the given labels. Streams derived with distinct label
// tuples are statistically independent for all practical purposes.
func Derive(seed uint64, labels ...uint64) *Rand {
	st := seed
	for _, l := range labels {
		// Mix each label in with a splitmix64 round so that label
		// order matters and nearby labels diverge immediately.
		_, h := splitmix64(st ^ (l * 0x9e3779b97f4a7c15))
		st = h
	}
	return New(st)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** sequence.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Box–Muller; the
// second variate of each pair is cached).
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.haveSpare = true
	return u * m
}

// LogNormal returns exp(mu + sigma*Z) for a standard normal Z.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// TruncNormal returns mean + sd*Z clamped to [lo, hi].
func (r *Rand) TruncNormal(mean, sd, lo, hi float64) float64 {
	v := mean + sd*r.NormFloat64()
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipf samples from a Zipf-like distribution over [0, n) with skew s
// using inverse-CDF on a precomputed table is avoided here for memory;
// instead we use the rejection-free approximation of Gray et al.
// (the common "zipfian" generator from the YCSB codebase).
type Zipf struct {
	n           int64
	theta       float64
	alpha       float64
	zetan       float64
	eta         float64
	halfPowTh   float64
	lastN       int64
	lastZeta    float64
	initialized bool
}

// NewZipf returns a Zipf generator over [0, n) with parameter theta in
// (0, 1); theta close to 1 is highly skewed.
func NewZipf(n int64, theta float64) *Zipf {
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.halfPowTh = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.initialized = true
	return z
}

// zetaExactTerms bounds the exact summation; the tail is integrated
// analytically (error < 1e-4 for theta in (0,1)), keeping NewZipf O(1)
// in n for the multi-gigabyte footprints the workload catalog uses.
const zetaExactTerms = 10000

// zetaCache memoizes zeta per (n, theta): every Zipf construction needs
// it, and the summation costs up to zetaExactTerms math.Pow calls.
// zeta is a pure function, so a cached value is bit-identical to a
// fresh one. Keys come from workload specs, which a daemon accepts
// from the network, so the cache stops growing at zetaCacheMax
// entries; later keys are computed afresh every time.
var (
	zetaCache   sync.Map // zetaKey -> float64
	zetaEntries atomic.Int64
)

const zetaCacheMax = 1024

type zetaKey struct {
	n     int64
	theta float64
}

func zeta(n int64, theta float64) float64 {
	key := zetaKey{n, theta}
	if v, ok := zetaCache.Load(key); ok {
		return v.(float64)
	}
	v := zetaSum(n, theta)
	if zetaEntries.Load() < zetaCacheMax {
		if _, loaded := zetaCache.LoadOrStore(key, v); !loaded {
			zetaEntries.Add(1)
		}
	}
	return v
}

// zetaSum computes sum_{i=1..n} i^-theta, exactly over the first
// zetaExactTerms terms and by the integral beyond.
func zetaSum(n int64, theta float64) float64 {
	k := n
	if k > zetaExactTerms {
		k = zetaExactTerms
	}
	sum := 0.0
	for i := int64(1); i <= k; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > k && theta != 1 {
		// Integral tail: sum_{i=k+1..n} i^-theta ~ (n^(1-t)-k^(1-t))/(1-t).
		t := 1 - theta
		sum += (math.Pow(float64(n), t) - math.Pow(float64(k), t)) / t
	}
	return sum
}

// Next draws the next Zipf value in [0, n).
func (z *Zipf) Next(r *Rand) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTh {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}
