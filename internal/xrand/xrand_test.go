package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("sequence diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/64 identical values", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, 1, 2)
	b := Derive(7, 1, 3)
	c := Derive(7, 2, 1)
	d := Derive(7, 1, 2)
	if a.Uint64() != d.Uint64() {
		t.Fatal("Derive with identical labels must produce identical streams")
	}
	av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
	if av == bv || av == cv || bv == cv {
		t.Fatal("Derive with distinct labels produced colliding streams")
	}
}

func TestDeriveLabelOrderMatters(t *testing.T) {
	a := Derive(7, 1, 2)
	b := Derive(7, 2, 1)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("label order should change the derived stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := New(5)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %g too far from 1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %g", v)
		}
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.TruncNormal(0.5, 10, 0, 1)
		if v < 0 || v > 1 {
			t.Fatalf("TruncNormal out of [0,1]: %g", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm invalid at value %d", v)
		}
		seen[v] = true
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(23)
	z := NewZipf(1000, 0.99)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next(r)
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must be substantially hotter than rank 500 under heavy skew.
	if counts[0] < 20*(counts[500]+1) {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(29)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit fraction %g", frac)
	}
}

// Property: Derive is a pure function of (seed, labels).
func TestDeriveDeterministicProperty(t *testing.T) {
	f := func(seed, a, b uint64) bool {
		x := Derive(seed, a, b).Uint64()
		y := Derive(seed, a, b).Uint64()
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Float64 stays in [0,1) for arbitrary seeds.
func TestFloat64RangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 32; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}

// TestZetaCacheBitExact: the memoized zeta returns exactly the bits of
// a fresh summation, on the first (computing) and later (cached) calls,
// for both the exact-sum and the integrated-tail regimes.
func TestZetaCacheBitExact(t *testing.T) {
	for _, tc := range []struct {
		n     int64
		theta float64
	}{{2, 0.99}, {1000, 0.99}, {zetaExactTerms, 0.5}, {1 << 22, 0.99}, {1 << 30, 0.8}} {
		fresh := zetaSum(tc.n, tc.theta)
		for i := 0; i < 2; i++ {
			if got := zeta(tc.n, tc.theta); math.Float64bits(got) != math.Float64bits(fresh) {
				t.Fatalf("zeta(%d, %v) call %d = %v, fresh summation %v", tc.n, tc.theta, i, got, fresh)
			}
		}
		if _, ok := zetaCache.Load(zetaKey{tc.n, tc.theta}); !ok {
			t.Errorf("zeta(%d, %v) was not cached", tc.n, tc.theta)
		}
	}
}
