package ddr

import (
	"fmt"
	"math/bits"
)

// Mapper translates flat physical byte addresses into DRAM coordinates
// with the MOP (Minimalist Open-Page) mapping the paper's simulated
// memory controller uses.
type Mapper struct {
	geo Geometry
	// fields, from least significant upward. Each entry names one
	// address component and how many bits it consumes.
	fields []mapField

	// shift/mask locate each field kind's bits, so Decode and ChannelOf
	// are straight-line shift-and-masks instead of a walk over fields
	// (memsys decodes every request and routes every occupancy probe).
	// colLow is the fColumnLow width. Precomputed by finish().
	shift  [numFieldKinds]uint
	mask   [numFieldKinds]uint64
	colLow uint
}

type mapField struct {
	kind fieldKind
	bits int
}

type fieldKind uint8

const (
	fOffset fieldKind = iota
	fColumnLow
	fChannel
	fRank
	fBankGroup
	fBank
	fColumnHigh
	fRow
	numFieldKinds
)

func log2(v int) int { return bits.TrailingZeros(uint(v)) }

// NewMOPMapper builds the MOP mapping used in the paper (Kaseridis et
// al., MICRO'11): a few column bits stay adjacent to the line offset so
// each row hit streams mopWidth lines, then channel/rank/bank bits
// interleave, then the remaining column bits, then row bits.
func NewMOPMapper(geo Geometry, mopWidth int) (*Mapper, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if mopWidth <= 0 || mopWidth&(mopWidth-1) != 0 || mopWidth > geo.Columns {
		return nil, fmt.Errorf("ddr: MOP width %d must be a power of two <= columns (%d)", mopWidth, geo.Columns)
	}
	colLow := log2(mopWidth)
	colHigh := log2(geo.Columns) - colLow
	m := &Mapper{geo: geo}
	m.fields = []mapField{
		{fOffset, log2(geo.LineBytes)},
		{fColumnLow, colLow},
		{fChannel, log2(geo.Channels)},
		{fRank, log2(geo.Ranks)},
		{fBankGroup, log2(geo.BankGroups)},
		{fBank, log2(geo.BanksPerGroup)},
		{fColumnHigh, colHigh},
		{fRow, log2(geo.Rows)},
	}
	m.finish()
	return m, nil
}

// finish precomputes each field kind's shift and mask from the field
// layout. A zero-width field (a single channel, say) has a zero mask
// and always decodes to 0.
func (m *Mapper) finish() {
	shift := uint(0)
	for _, f := range m.fields {
		m.shift[f.kind] = shift
		m.mask[f.kind] = 1<<f.bits - 1
		shift += uint(f.bits)
	}
	m.colLow = uint(bits.OnesCount64(m.mask[fColumnLow]))
}

// Geometry returns the geometry the mapper was built for.
func (m *Mapper) Geometry() Geometry { return m.geo }

// AddressBits returns the number of significant physical address bits.
func (m *Mapper) AddressBits() int {
	n := 0
	for _, f := range m.fields {
		n += f.bits
	}
	return n
}

// Decode maps a flat physical byte address to DRAM coordinates.
// Address bits above AddressBits() wrap around (the address space is
// treated as a torus so synthetic traces never fall out of range).
func (m *Mapper) Decode(phys uint64) Address {
	return Address{
		Channel:   m.field(phys, fChannel),
		Rank:      m.field(phys, fRank),
		BankGroup: m.field(phys, fBankGroup),
		Bank:      m.field(phys, fBank),
		Row:       m.field(phys, fRow),
		Column:    m.field(phys, fColumnLow) | m.field(phys, fColumnHigh)<<m.colLow,
	}
}

// field extracts the bits of one field kind from phys.
func (m *Mapper) field(phys uint64, k fieldKind) int {
	return int(phys >> m.shift[k] & m.mask[k])
}

// Encode is the inverse of Decode: it maps DRAM coordinates back to
// the canonical flat physical byte address (offset bits zero).
func (m *Mapper) Encode(a Address) uint64 {
	return m.put(a.Column, fColumnLow) | m.put(a.Column>>m.colLow, fColumnHigh) |
		m.put(a.Channel, fChannel) | m.put(a.Rank, fRank) |
		m.put(a.BankGroup, fBankGroup) | m.put(a.Bank, fBank) | m.put(a.Row, fRow)
}

// put places v's low bits in the field kind's position.
func (m *Mapper) put(v int, k fieldKind) uint64 {
	return uint64(v) & m.mask[k] << m.shift[k]
}

// ChannelOf extracts just the channel index of a flat physical byte
// address — the per-request routing decision a multi-channel memory
// system makes. It is a shift and a mask, not a full Decode, so it is
// cheap enough for per-cycle occupancy probes.
func (m *Mapper) ChannelOf(phys uint64) int {
	return m.field(phys, fChannel)
}

// RowStrideBytes returns the smallest physical-address stride that
// advances the row index by exactly one while every lower coordinate
// (channel, rank, bank group, bank, column) repeats — the stride a
// same-bank hammer walks. Under the paper's single-channel MOP mapping
// it is 256KB; each channel doubling doubles it, because the channel
// bits sit below the row bits.
func (m *Mapper) RowStrideBytes() uint64 {
	return 1 << m.shift[fRow]
}
