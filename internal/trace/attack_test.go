package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRowPressShape: with OpenRowReads set, every aggressor activation
// is followed by exactly that many reads at consecutive lines after it
// (the row-press tail), before the hammer moves to the next aggressor.
func TestRowPressShape(t *testing.T) {
	spec := AttackSpec{Sides: 2, StrideBytes: 8192, OpenRowReads: 3}
	g, err := NewAttacker(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := Capture(g, 16)
	// Pattern period: (1 aggressor + 3 tail reads) per side.
	for i := 0; i < 16; i += 4 {
		agg := recs[i].Addr
		if agg%8192 != 0 {
			t.Fatalf("record %d: aggressor %#x not stride-aligned", i, agg)
		}
		for k := 1; k <= 3; k++ {
			want := agg + uint64(k)*lineBytes
			if recs[i+k].Addr != want {
				t.Fatalf("record %d: tail read %#x, want %#x (aggressor+%d lines)", i+k, recs[i+k].Addr, want, k)
			}
		}
	}
	if recs[0].Addr == recs[4].Addr {
		t.Fatal("hammer never advanced to the second aggressor")
	}
	if recs[0].Addr != recs[8].Addr {
		t.Fatal("hammer did not cycle back to the first aggressor")
	}
}

// TestBurstRestShape: with BurstAccesses/RestBubbles set, exactly one
// record per burst carries the rest window, and it recurs with the
// burst period.
func TestBurstRestShape(t *testing.T) {
	spec := AttackSpec{Sides: 2, StrideBytes: 8192, Bubbles: 1, BurstAccesses: 4, RestBubbles: 100}
	g, err := NewAttacker(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := Capture(g, 20)
	for i, r := range recs {
		want := 1
		if i >= 4 && i%4 == 0 {
			want = 101
		}
		if r.Bubbles != want {
			t.Fatalf("record %d: bubbles %d, want %d", i, r.Bubbles, want)
		}
	}
}

// TestAttackSpecKeyStability: new AttackSpec fields are omitempty, so
// a spec that does not use them marshals exactly as it did before they
// existed — the property that keeps every pre-existing attacker cell's
// content-addressed job key stable.
func TestAttackSpecKeyStability(t *testing.T) {
	b, err := json.Marshal(AttackSpec{Sides: 2, StrideBytes: 8192, VictimEvery: 4}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"OpenRowReads", "BurstAccesses", "RestBubbles"} {
		if strings.Contains(string(b), field) {
			t.Fatalf("zero-valued %s leaks into the marshaled spec (job keys would shift): %s", field, b)
		}
	}
}

func TestAttackDefaultNames(t *testing.T) {
	cases := map[string]AttackSpec{
		"hammer-2side":   {},
		"rowpress-4side": {Sides: 4, OpenRowReads: 2},
		"burst-8side":    {Sides: 8, BurstAccesses: 64},
	}
	for want, spec := range cases {
		if got := spec.WithDefaults().Name; got != want {
			t.Errorf("default name %q, want %q", got, want)
		}
	}
}

func TestAttackValidateDirectedPatterns(t *testing.T) {
	bad := []AttackSpec{
		{OpenRowReads: -1},
		{StrideBytes: 128, OpenRowReads: 2}, // tail overruns the stride
		{BurstAccesses: -1},
		{RestBubbles: -1, BurstAccesses: 4},
		{RestBubbles: 10}, // rest without bursts
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	good := AttackSpec{Sides: 8, OpenRowReads: 3, BurstAccesses: 120, RestBubbles: 4000, VictimEvery: 32}
	if err := good.Validate(); err != nil {
		t.Fatalf("combined directed spec rejected: %v", err)
	}
}

// TestDirectedAttackCloneDeterminism: the directed patterns are as
// deterministic as every other generator: two attackers built from the
// same spec and seed emit the same stream.
func TestDirectedAttackCloneDeterminism(t *testing.T) {
	for _, spec := range []AttackSpec{
		{Sides: 4, OpenRowReads: 3, VictimEvery: 8},
		{Sides: 8, BurstAccesses: 32, RestBubbles: 500, VictimEvery: 8},
	} {
		checkSameStream(t, func() Generator {
			g, err := NewAttacker(spec, 0xBAD)
			if err != nil {
				t.Fatal(err)
			}
			return g
		})
	}
}
