package trace

import (
	"testing"
)

// checkSameStream verifies the determinism the planner relies on when
// it rebuilds a cell's generators for every run: two generators built
// from the same parameters have the same name and emit the identical
// record sequence.
func checkSameStream(t *testing.T, fresh func() Generator) {
	t.Helper()
	const n = 512
	a, b := fresh(), fresh()
	if a.Name() != b.Name() {
		t.Fatalf("same parameters, different names: %q != %q", a.Name(), b.Name())
	}
	want, got := Capture(a, n), Capture(b, n)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("same parameters, streams diverge at record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCloneDeterminismSynthetic exercises every AccessPattern.
func TestCloneDeterminismSynthetic(t *testing.T) {
	for _, pattern := range []AccessPattern{PatternStream, PatternRandom, PatternZipf, PatternMixed} {
		t.Run(pattern.String(), func(t *testing.T) {
			spec := Spec{
				Name:        "fresh-" + pattern.String(),
				BubbleMean:  30,
				Pattern:     pattern,
				FootprintMB: 32,
				BurstLen:    16,
				WriteFrac:   0.3,
				ZipfTheta:   0.9,
			}
			checkSameStream(t, func() Generator {
				g, err := New(spec, 0xC10E)
				if err != nil {
					t.Fatal(err)
				}
				return g
			})
		})
	}
}

// TestCloneDeterminismCatalog spot-checks real catalog entries (one
// per pattern class, as classified in the catalog).
func TestCloneDeterminismCatalog(t *testing.T) {
	for _, name := range []string{"470.lbm", "429.mcf", "ycsb-a", "401.bzip2"} {
		t.Run(name, func(t *testing.T) {
			spec, err := SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			checkSameStream(t, func() Generator {
				g, err := New(spec, 7)
				if err != nil {
					t.Fatal(err)
				}
				return g
			})
		})
	}
}

func TestCloneDeterminismAttacker(t *testing.T) {
	spec := AttackSpec{Sides: 2, VictimEvery: 16, Bubbles: 2}
	checkSameStream(t, func() Generator {
		g, err := NewAttacker(spec, 0xBAD)
		if err != nil {
			t.Fatal(err)
		}
		return g
	})
}

func TestCloneDeterminismPhased(t *testing.T) {
	phases := []Phase{
		{Spec: Spec{Name: "serve", BubbleMean: 40, Pattern: PatternZipf, FootprintMB: 64, ZipfTheta: 0.99}, Accesses: 100},
		{Spec: Spec{Name: "batch", BubbleMean: 12, Pattern: PatternStream, FootprintMB: 128, BurstLen: 64}, Accesses: 60},
	}
	checkSameStream(t, func() Generator {
		g, err := NewPhased("diurnal", phases, 0x11)
		if err != nil {
			t.Fatal(err)
		}
		return g
	})
}

// TestPhasedSeedDecorrelation guards the phase-seed derivation: a
// phased core's later phases must not replay the workload stream a
// neighbouring core gets from sim's base+core*0x9E37 seed lattice.
func TestPhasedSeedDecorrelation(t *testing.T) {
	spec, err := SpecByName("ycsb-a")
	if err != nil {
		t.Fatal(err)
	}
	const base = 0x51317
	ph, err := NewPhased("p", []Phase{
		{Spec: Spec{Name: "warm", BubbleMean: 10, Pattern: PatternRandom, FootprintMB: 8}, Accesses: 1},
		{Spec: spec, Accesses: 1 << 30},
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	ph.Next() // consume phase 0
	neighbour, err := New(spec, base+0x9E37)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 64; i++ {
		if ph.Next() == neighbour.Next() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("phase 1 replays the next core's workload stream verbatim")
	}
}

func TestCloneDeterminismReplay(t *testing.T) {
	src, err := New(Spec{Name: "src", BubbleMean: 10, Pattern: PatternRandom, FootprintMB: 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs := Capture(src, 64)
	checkSameStream(t, func() Generator {
		g, err := NewReplay("replay", recs)
		if err != nil {
			t.Fatal(err)
		}
		return g
	})
}

// TestAttackerShape verifies the aggressor/victim address structure:
// hammer accesses cycle Sides distinct addresses at even stride
// multiples, and victim reads land strictly between them.
func TestAttackerShape(t *testing.T) {
	spec := AttackSpec{Sides: 2, StrideBytes: 8192, VictimEvery: 4}
	g, err := NewAttacker(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make(map[uint64]int)
	victims := make(map[uint64]int)
	var base uint64
	for i := 0; i < 1000; i++ {
		r := g.Next()
		if r.Write {
			t.Fatal("attacker issued a write")
		}
		if i == 0 {
			base = r.Addr
		}
		off := (r.Addr - base) / 8192
		if off%2 == 0 {
			addrs[r.Addr]++
		} else {
			victims[r.Addr]++
		}
	}
	if len(addrs) != 2 {
		t.Fatalf("want 2 aggressor addresses, got %d", len(addrs))
	}
	if len(victims) == 0 {
		t.Fatal("no victim reads with VictimEvery=4")
	}
	for a := range victims {
		if (a-base)/8192 != 1 && (a-base)/8192 != 3 {
			t.Fatalf("victim 0x%x not between aggressors (base 0x%x)", a, base)
		}
	}
}

func TestAttackerValidation(t *testing.T) {
	bad := []AttackSpec{
		{Sides: -1},
		{StrideBytes: 13},
		{Bubbles: -2},
		{VictimEvery: -1},
		{FootprintMB: -5},
		{Sides: 4096, StrideBytes: 1 << 20, FootprintMB: 1},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d (%+v) should not validate", i, spec)
		}
	}
	if err := (AttackSpec{}).Validate(); err != nil {
		t.Errorf("zero spec should validate via defaults: %v", err)
	}
}

func TestParsePattern(t *testing.T) {
	for _, p := range []AccessPattern{PatternStream, PatternRandom, PatternZipf, PatternMixed} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePattern(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePattern("bogus"); err == nil {
		t.Error("bogus pattern should not parse")
	}
}

func TestMixByName(t *testing.T) {
	m, err := MixByName("mix00")
	if err != nil || m.Name != "mix00" {
		t.Fatalf("MixByName(mix00) = %+v, %v", m, err)
	}
	if _, err := MixByName("mix99"); err == nil {
		t.Error("mix99 should not exist")
	}
}
