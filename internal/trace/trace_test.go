package trace

import (
	"testing"
	"testing/quick"
)

func TestCatalogHas62Workloads(t *testing.T) {
	if got := len(Catalog()); got != 62 {
		t.Fatalf("catalog has %d workloads, paper uses 62", got)
	}
}

func TestCatalogSpecsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Catalog() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate workload name %s", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestCatalogSpansIntensityClasses(t *testing.T) {
	intensive, light := 0, 0
	for _, s := range Catalog() {
		if s.MemoryIntensive() {
			intensive++
		}
		if s.BubbleMean >= 200 {
			light++
		}
	}
	if intensive < 10 || light < 10 {
		t.Fatalf("catalog intensity spread too narrow: %d intensive, %d light", intensive, light)
	}
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName("429.mcf")
	if err != nil || s.Name != "429.mcf" {
		t.Fatalf("SpecByName failed: %v", err)
	}
	if _, err := SpecByName("no-such"); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestMixes(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 60 {
		t.Fatalf("%d mixes, paper uses 60", len(mixes))
	}
	for _, m := range mixes {
		hasIntensive := false
		for _, s := range m.Specs {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			hasIntensive = hasIntensive || s.MemoryIntensive()
		}
		if !hasIntensive {
			t.Fatalf("%s has no memory-intensive workload", m.Name)
		}
	}
	// Deterministic.
	again := Mixes()
	for i := range mixes {
		if mixes[i].Specs != again[i].Specs {
			t.Fatal("Mixes not deterministic")
		}
	}
}

// TestGeneratorDeterministicAndClonable: two generators built from
// the same spec and seed emit the same stream, so a cell rebuilt for
// another run replays it.
func TestGeneratorDeterministicAndClonable(t *testing.T) {
	spec, _ := SpecByName("470.lbm")
	var gens [2]Generator
	for i := range gens {
		g, err := New(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = g
	}
	for i := 0; i < 1000; i++ {
		ra, rb := gens[0].Next(), gens[1].Next()
		if ra != rb {
			t.Fatalf("same spec and seed diverged at %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestGeneratorAddressesAligned(t *testing.T) {
	for _, name := range []string{"429.mcf", "470.lbm", "ycsb-a", "401.bzip2"} {
		spec, _ := SpecByName(name)
		g, err := New(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		limit := uint64(spec.FootprintMB) * 1024 * 1024
		for i := 0; i < 5000; i++ {
			r := g.Next()
			if r.Addr%lineBytes != 0 {
				t.Fatalf("%s: unaligned address %#x", name, r.Addr)
			}
			if r.Addr >= limit {
				t.Fatalf("%s: address %#x beyond footprint %#x", name, r.Addr, limit)
			}
			if r.Bubbles < 0 {
				t.Fatalf("%s: negative bubbles", name)
			}
		}
	}
}

func TestStreamPatternIsSequential(t *testing.T) {
	g, err := New(Spec{Name: "s", BubbleMean: 0, Pattern: PatternStream,
		FootprintMB: 16, BurstLen: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sequential := 0
	prev := g.Next().Addr
	const n = 10000
	for i := 0; i < n; i++ {
		cur := g.Next().Addr
		if cur == prev+lineBytes {
			sequential++
		}
		prev = cur
	}
	if frac := float64(sequential) / n; frac < 0.9 {
		t.Fatalf("stream pattern only %.0f%% sequential", 100*frac)
	}
}

func TestRandomPatternIsNot(t *testing.T) {
	g, _ := New(Spec{Name: "r", BubbleMean: 0, Pattern: PatternRandom, FootprintMB: 64}, 1)
	sequential := 0
	prev := g.Next().Addr
	const n = 10000
	for i := 0; i < n; i++ {
		cur := g.Next().Addr
		if cur == prev+lineBytes {
			sequential++
		}
		prev = cur
	}
	if sequential > n/100 {
		t.Fatalf("random pattern %d/%d sequential", sequential, n)
	}
}

func TestZipfPatternIsSkewed(t *testing.T) {
	g, _ := New(Spec{Name: "z", BubbleMean: 0, Pattern: PatternZipf,
		FootprintMB: 64, ZipfTheta: 0.99}, 1)
	counts := map[uint64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next().Addr]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/100 {
		t.Fatalf("zipf hottest line only %d/%d accesses", max, n)
	}
}

func TestWriteFraction(t *testing.T) {
	g, _ := New(Spec{Name: "w", BubbleMean: 2, Pattern: PatternRandom,
		FootprintMB: 16, WriteFrac: 0.5}, 1)
	writes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("write fraction %.2f, want ~0.5", frac)
	}
}

func TestBubbleMeanApproximatelyHonored(t *testing.T) {
	g, _ := New(Spec{Name: "b", BubbleMean: 100, Pattern: PatternRandom, FootprintMB: 16}, 1)
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Next().Bubbles
	}
	mean := float64(sum) / n
	if mean < 90 || mean > 110 {
		t.Fatalf("bubble mean %.1f, want ~100", mean)
	}
}

func TestSpecValidateRejectsBad(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "x", FootprintMB: 0},
		{Name: "x", FootprintMB: 1, WriteFrac: 2},
		{Name: "x", FootprintMB: 1, Pattern: PatternStream, BurstLen: 0},
		{Name: "x", FootprintMB: 1, BubbleMean: -1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestPatternNames(t *testing.T) {
	for p, want := range map[AccessPattern]string{
		PatternStream: "stream", PatternRandom: "random",
		PatternZipf: "zipf", PatternMixed: "mixed",
	} {
		if p.String() != want {
			t.Fatalf("pattern name %q", p.String())
		}
	}
	if AccessPattern(99).String() != "unknown" {
		t.Fatal("out-of-range pattern name")
	}
}

// Property: every generated record respects footprint and alignment
// for arbitrary seeds.
func TestGeneratorBoundsProperty(t *testing.T) {
	spec, _ := SpecByName("tpcc64")
	limit := uint64(spec.FootprintMB) * 1024 * 1024
	f := func(seed uint64) bool {
		g, err := New(spec, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 64; i++ {
			r := g.Next()
			if r.Addr >= limit || r.Addr%lineBytes != 0 || r.Bubbles < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	spec, _ := SpecByName("429.mcf")
	g, _ := New(spec, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
