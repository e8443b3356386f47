// Package stats provides the small statistical toolkit used by the
// characterization and system-evaluation experiments: box-and-whiskers
// summaries (Figs. 6, 9, 10, 11, 12 of the paper), geometric means,
// weighted speedup (the paper's multi-core performance metric), and
// simple histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a five-number summary plus mean and count, matching the
// box-and-whiskers plots used throughout the paper (box = Q1..Q3,
// whiskers = min/max).
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary of xs. It returns a zero Summary if xs
// is empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.5),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
	}
}

// String renders the summary in a compact single-line form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// Quantile returns the q-quantile (0 <= q <= 1) of an already sorted
// slice using linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean of xs (NaN if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Geomean returns the geometric mean of xs. All values must be
// positive; non-positive values make the result NaN.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range xs {
		if v <= 0 {
			return math.NaN()
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Min returns the minimum of xs (NaN if empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of xs (NaN if empty).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// WeightedSpeedup computes the multi-programmed performance metric used
// in the paper's multi-core results: the sum over cores of
// IPC_shared[i] / IPC_alone[i].
func WeightedSpeedup(ipcShared, ipcAlone []float64) float64 {
	if len(ipcShared) != len(ipcAlone) {
		panic("stats: WeightedSpeedup length mismatch")
	}
	ws := 0.0
	for i := range ipcShared {
		if ipcAlone[i] <= 0 {
			continue
		}
		ws += ipcShared[i] / ipcAlone[i]
	}
	return ws
}

// Normalize returns xs[i]/base for every element. base must be nonzero.
func Normalize(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v / base
	}
	return out
}

// Histogram is a fixed-width histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi  float64
	Counts  []int
	Under   int
	Over    int
	samples int
}

// NewHistogram creates a histogram with nbins bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples++
	if v < h.Lo {
		h.Under++
		return
	}
	if v >= h.Hi {
		h.Over++
		return
	}
	idx := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
}

// Total returns the number of samples recorded, including out-of-range.
func (h *Histogram) Total() int { return h.samples }

// Fraction returns the fraction of in-range samples falling in bin i.
func (h *Histogram) Fraction(i int) float64 {
	in := h.samples - h.Under - h.Over
	if in == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(in)
}
