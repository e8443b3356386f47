package ddr

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCommandNames(t *testing.T) {
	cases := map[CommandKind]string{
		CmdACT: "ACT", CmdPRE: "PRE", CmdPREA: "PREA", CmdRD: "RD",
		CmdWR: "WR", CmdREF: "REF", CmdRFM: "RFM", CmdVRR: "VRR",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%v name = %q, want %q", int(k), k.String(), want)
		}
	}
	if CommandKind(200).String() != "UNKNOWN" {
		t.Fatal("out-of-range command should stringify as UNKNOWN")
	}
}

func TestIsRowCommand(t *testing.T) {
	if !CmdACT.IsRowCommand() || !CmdVRR.IsRowCommand() || !CmdREF.IsRowCommand() {
		t.Fatal("row commands misclassified")
	}
	if CmdRD.IsRowCommand() || CmdWR.IsRowCommand() {
		t.Fatal("column commands misclassified as row commands")
	}
}

func TestTimingPresetsValid(t *testing.T) {
	for _, tm := range []Timing{DDR4(), DDR5()} {
		if err := tm.Validate(); err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
	}
}

func TestTimingTRC(t *testing.T) {
	tm := DDR4()
	if tm.TRC() != tm.TRAS+tm.TRP {
		t.Fatal("tRC must equal tRAS+tRP")
	}
}

func TestTimingWithTRAS(t *testing.T) {
	tm := DDR4()
	reduced := tm.WithTRAS(12)
	if reduced.TRAS != 12 {
		t.Fatal("WithTRAS did not apply")
	}
	if tm.TRAS != 33 {
		t.Fatal("WithTRAS mutated the receiver")
	}
}

func TestTimingValidateRejectsBad(t *testing.T) {
	tm := DDR4()
	tm.TRAS = -1
	if tm.Validate() == nil {
		t.Fatal("negative tRAS must fail validation")
	}
	tm = DDR4()
	tm.TRAS = tm.TRCD / 2
	if tm.Validate() == nil {
		t.Fatal("tRAS < tRCD must fail validation")
	}
	tm = DDR4()
	tm.TREFI = tm.TREFW + 1
	if tm.Validate() == nil {
		t.Fatal("tREFI >= tREFW must fail validation")
	}
}

func TestGeometryPresets(t *testing.T) {
	for _, g := range []Geometry{PaperSystem(), SmallSystem()} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	g := PaperSystem()
	if g.Banks() != 16 {
		t.Fatalf("paper system banks per rank = %d, want 16", g.Banks())
	}
	if g.TotalBanks() != 32 {
		t.Fatalf("paper system total banks = %d, want 32", g.TotalBanks())
	}
	if g.RowBytes() != 8192 {
		t.Fatalf("paper system row bytes = %d, want 8192", g.RowBytes())
	}
}

func TestGeometryValidateRejectsNonPow2(t *testing.T) {
	g := SmallSystem()
	g.Rows = 1000
	if g.Validate() == nil {
		t.Fatal("non-power-of-two rows must fail validation")
	}
	g = SmallSystem()
	g.Channels = 0
	if g.Validate() == nil {
		t.Fatal("zero channels must fail validation")
	}
}

func TestFlatBankRoundTrip(t *testing.T) {
	g := PaperSystem()
	seen := make(map[int]bool)
	for ch := 0; ch < g.Channels; ch++ {
		for rk := 0; rk < g.Ranks; rk++ {
			for bg := 0; bg < g.BankGroups; bg++ {
				for bk := 0; bk < g.BanksPerGroup; bk++ {
					a := Address{Channel: ch, Rank: rk, BankGroup: bg, Bank: bk}
					flat := g.FlatBank(a)
					if flat < 0 || flat >= g.TotalBanks() {
						t.Fatalf("flat bank %d out of range", flat)
					}
					if seen[flat] {
						t.Fatalf("flat bank %d duplicated", flat)
					}
					seen[flat] = true
					back := g.BankOfFlat(flat)
					if back.Channel != ch || back.Rank != rk || back.BankGroup != bg || back.Bank != bk {
						t.Fatalf("BankOfFlat(%d) = %+v, want %+v", flat, back, a)
					}
				}
			}
		}
	}
}

func TestMapperRoundTripMOP(t *testing.T) {
	g := PaperSystem()
	m, err := NewMOPMapper(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a grid of addresses.
	for _, a := range []Address{
		{},
		{Row: 1}, {Column: 1}, {Bank: 1}, {BankGroup: 7}, {Rank: 1},
		{Row: g.Rows - 1, Column: g.Columns - 1, Bank: g.BanksPerGroup - 1,
			BankGroup: g.BankGroups - 1, Rank: g.Ranks - 1},
		{Row: 12345, Column: 77, BankGroup: 3, Bank: 1, Rank: 1},
	} {
		phys := m.Encode(a)
		got := m.Decode(phys)
		if got != a {
			t.Fatalf("round trip failed: %+v -> %#x -> %+v", a, phys, got)
		}
	}
}

func TestMapperRoundTripProperty(t *testing.T) {
	g := PaperSystem()
	for _, w := range []int{1, 4} {
		m, err := NewMOPMapper(g, w)
		if err != nil {
			t.Fatal(err)
		}
		mask := uint64(1)<<m.AddressBits() - 1
		f := func(phys uint64) bool {
			p := phys & mask &^ uint64(g.LineBytes-1)
			a := m.Decode(p)
			if !g.Contains(a) {
				return false
			}
			return m.Encode(a) == p
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("MOP%d: %v", w, err)
		}
	}
}

func TestMOPStreamsWithinRow(t *testing.T) {
	g := PaperSystem()
	m, err := NewMOPMapper(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Four consecutive lines must land in the same row and bank (the
	// point of MOP), and the fifth must switch channel/bank bits.
	base := m.Encode(Address{Row: 100})
	first := m.Decode(base)
	for i := 1; i < 4; i++ {
		a := m.Decode(base + uint64(i*g.LineBytes))
		if a.Row != first.Row || a.Bank != first.Bank || a.BankGroup != first.BankGroup {
			t.Fatalf("line %d left the MOP group: %+v vs %+v", i, a, first)
		}
		if a.Column != first.Column+i {
			t.Fatalf("line %d column = %d, want %d", i, a.Column, first.Column+i)
		}
	}
}

// TestGeometryValidateNamesFieldAndValue: channel/rank (and every
// other) dimension failures must name the offending field and its
// value, so multi-channel misconfigurations surface precisely.
func TestGeometryValidateNamesFieldAndValue(t *testing.T) {
	cases := []struct {
		mutate     func(*Geometry)
		field, val string
	}{
		{func(g *Geometry) { g.Channels = 3 }, "Channels", "3"},
		{func(g *Geometry) { g.Channels = -2 }, "Channels", "-2"},
		{func(g *Geometry) { g.Ranks = 6 }, "Ranks", "6"},
		{func(g *Geometry) { g.Ranks = 0 }, "Ranks", "0"},
		{func(g *Geometry) { g.BankGroups = 5 }, "BankGroups", "5"},
		{func(g *Geometry) { g.Rows = 1000 }, "Rows", "1000"},
	}
	for _, tc := range cases {
		g := PaperSystem()
		tc.mutate(&g)
		err := g.Validate()
		if err == nil {
			t.Fatalf("%s: expected a validation error", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), tc.val) {
			t.Errorf("error %q does not name field %s with value %s", err, tc.field, tc.val)
		}
	}
}

// multiChannelGeometries returns the paper geometry at each supported
// channel count (the multi-channel test grid).
func multiChannelGeometries() []Geometry {
	var gs []Geometry
	for _, ch := range []int{1, 2, 4} {
		g := PaperSystem()
		g.Channels = ch
		gs = append(gs, g)
	}
	return gs
}

// TestMapperRoundTripMultiChannel: Decode(Encode(a)) == a over the
// exhaustive channel x rank x bank-group x bank grid (with row/column
// corners) at Channels in {1,2,4}, for MOP widths 1 and 4.
func TestMapperRoundTripMultiChannel(t *testing.T) {
	for _, g := range multiChannelGeometries() {
		rows := []int{0, 1, g.Rows / 2, g.Rows - 1}
		cols := []int{0, 1, g.Columns / 2, g.Columns - 1}
		for _, w := range []int{1, 4} {
			m, err := NewMOPMapper(g, w)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(1)<<m.AddressBits() != g.TotalBytes() {
				t.Fatalf("MOP%d channels=%d: address bits %d do not cover capacity %d",
					w, g.Channels, m.AddressBits(), g.TotalBytes())
			}
			for ch := 0; ch < g.Channels; ch++ {
				for rk := 0; rk < g.Ranks; rk++ {
					for bg := 0; bg < g.BankGroups; bg++ {
						for bk := 0; bk < g.BanksPerGroup; bk++ {
							for _, row := range rows {
								for _, col := range cols {
									a := Address{Channel: ch, Rank: rk, BankGroup: bg,
										Bank: bk, Row: row, Column: col}
									phys := m.Encode(a)
									if got := m.Decode(phys); got != a {
										t.Fatalf("MOP%d channels=%d: %+v -> %#x -> %+v",
											w, g.Channels, a, phys, got)
									}
									if got := m.ChannelOf(phys); got != ch {
										t.Fatalf("MOP%d channels=%d: ChannelOf(%#x) = %d, want %d",
											w, g.Channels, phys, got, ch)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMOPRowStridePerChannel: the attacker stride property — one row
// per stride, everything below the row bits repeating — holds per
// channel at every channel count. At one channel the stride is the
// documented 256KB default of trace.AttackSpec; it doubles with the
// channel count because the channel bits sit below the row bits.
func TestMOPRowStridePerChannel(t *testing.T) {
	for _, g := range multiChannelGeometries() {
		m, err := NewMOPMapper(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		stride := m.RowStrideBytes()
		if want := uint64(256*1024) * uint64(g.Channels); stride != want {
			t.Fatalf("channels=%d: row stride = %d bytes, want %d", g.Channels, stride, want)
		}
		for ch := 0; ch < g.Channels; ch++ {
			base := m.Encode(Address{Channel: ch, Row: 7})
			first := m.Decode(base)
			for i := 1; i < 16; i++ {
				a := m.Decode(base + uint64(i)*stride)
				if a.Channel != ch {
					t.Fatalf("channels=%d: stride %d left channel %d: %+v", g.Channels, i, ch, a)
				}
				if a.Rank != first.Rank || a.BankGroup != first.BankGroup ||
					a.Bank != first.Bank || a.Column != first.Column {
					t.Fatalf("channels=%d: stride %d changed bank coordinates: %+v vs %+v",
						g.Channels, i, a, first)
				}
				if a.Row != first.Row+i {
					t.Fatalf("channels=%d: stride %d row = %d, want %d",
						g.Channels, i, a.Row, first.Row+i)
				}
			}
		}
	}
}

func TestMapperRejectsBadMOPWidth(t *testing.T) {
	g := PaperSystem()
	if _, err := NewMOPMapper(g, 3); err == nil {
		t.Fatal("non-power-of-two MOP width must be rejected")
	}
	if _, err := NewMOPMapper(g, g.Columns*2); err == nil {
		t.Fatal("MOP width beyond columns must be rejected")
	}
}

func TestMapperAddressBitsCoverCapacity(t *testing.T) {
	g := PaperSystem()
	m, _ := NewMOPMapper(g, 4)
	if uint64(1)<<m.AddressBits() != g.TotalBytes() {
		t.Fatalf("address bits %d do not cover capacity %d", m.AddressBits(), g.TotalBytes())
	}
}
