package ddr

import (
	"math/rand/v2"
	"testing"
)

// refDecode is the field-walk decoder Decode's precomputed
// shift-and-masks replace: each field consumes its bits from the
// bottom of the address in layout order.
func refDecode(m *Mapper, phys uint64) Address {
	var a Address
	colLow := 0
	for _, f := range m.fields {
		v := int(phys & (1<<f.bits - 1))
		phys >>= f.bits
		switch f.kind {
		case fColumnLow:
			a.Column |= v
			colLow = f.bits
		case fColumnHigh:
			a.Column |= v << colLow
		case fChannel:
			a.Channel = v
		case fRank:
			a.Rank = v
		case fBankGroup:
			a.BankGroup = v
		case fBank:
			a.Bank = v
		case fRow:
			a.Row = v
		}
	}
	return a
}

// refEncode is refDecode's inverse, the field-walk Encode.
func refEncode(m *Mapper, a Address) uint64 {
	var phys uint64
	shift, colLow := 0, 0
	for _, f := range m.fields {
		var v int
		switch f.kind {
		case fColumnLow:
			v, colLow = a.Column, f.bits
		case fColumnHigh:
			v = a.Column >> colLow
		case fChannel:
			v = a.Channel
		case fRank:
			v = a.Rank
		case fBankGroup:
			v = a.BankGroup
		case fBank:
			v = a.Bank
		case fRow:
			v = a.Row
		}
		phys |= uint64(v&(1<<f.bits-1)) << shift
		shift += f.bits
	}
	return phys
}

// TestDecodeMatchesFieldWalk compares the straight-line Decode, Encode
// and ChannelOf against the field-walk reference over random addresses
// — full 64-bit values, so bits above AddressBits() are exercised too —
// for both mappers on every catalog geometry.
func TestDecodeMatchesFieldWalk(t *testing.T) {
	names := []string{"paper", "small"}
	geos := []Geometry{PaperSystem(), SmallSystem()}
	for _, p := range Profiles() {
		names, geos = append(names, p.Name), append(geos, p.Geometry)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for gi, g := range geos {
		name := names[gi]
		for _, w := range []int{1, 4} {
			m, err := NewMOPMapper(g, w)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				phys := rng.Uint64()
				if i%2 == 0 {
					phys &= 1<<m.AddressBits() - 1
				}
				want := refDecode(m, phys)
				if got := m.Decode(phys); got != want {
					t.Fatalf("%s/MOP%d: Decode(%#x) = %+v, field walk gives %+v", name, w, phys, got, want)
				}
				if got := m.ChannelOf(phys); got != want.Channel {
					t.Fatalf("%s/MOP%d: ChannelOf(%#x) = %d, want %d", name, w, phys, got, want.Channel)
				}
				if got, ref := m.Encode(want), refEncode(m, want); got != ref {
					t.Fatalf("%s/MOP%d: Encode(%+v) = %#x, field walk gives %#x", name, w, want, got, ref)
				}
			}
		}
	}
}
