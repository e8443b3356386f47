package sim

import (
	"strconv"

	"pacram/internal/memsys"
)

// DecodeCell decodes data into r when data is exactly what json.Marshal
// writes for a Result: fields in declaration order, ChannelStats present
// (non-empty) or omitted, Profile omitted, no whitespace, and numbers in
// JSON grammar, parsed with the strconv calls encoding/json makes so
// the bits are the same. It reports false for anything else and then
// leaves r untouched; the caller falls back to encoding/json, the
// reference. On true, *r is what json.Unmarshal decodes from data into
// a zero Result (runner's FuzzGetCellResult checks this on any bytes).
//
// It is not a json.Unmarshaler: encoding/json would still scan the whole
// input before calling it, which is most of the cost it exists to skip.
// The result store finds it through an optional interface.
func (r *Result) DecodeCell(data []byte) bool {
	var v Result
	p := cellParser{b: data}
	p.want(`{"IPC":`)
	v.IPC = p.floats()
	v.Cycles = p.uint(`,"Cycles":`)
	p.want(`,"Stats":`)
	p.stats(&v.Stats)
	v.Energy.ActPre = p.float(`,"Energy":{"ActPre":`)
	v.Energy.Column = p.float(`,"Column":`)
	v.Energy.Refresh = p.float(`,"Refresh":`)
	v.Energy.PrevRefresh = p.float(`,"PrevRefresh":`)
	v.Energy.Background = p.float(`,"Background":`)
	p.want("}")
	if p.lit(`,"ChannelStats":[`) {
		for !p.bad {
			var s memsys.Stats
			p.stats(&s)
			v.ChannelStats = append(v.ChannelStats, s)
			if !p.lit(",") {
				break
			}
		}
		p.want("]")
	}
	v.PrevRefBusyFraction = p.float(`,"PrevRefBusyFraction":`)
	v.PartialFraction = p.float(`,"PartialFraction":`)
	v.ScaledNRH = p.int(`,"ScaledNRH":`)
	p.want("}")
	if p.bad || len(p.b) != 0 {
		return false
	}
	*r = v
	return true
}

// stats decodes one memsys.Stats object.
func (p *cellParser) stats(s *memsys.Stats) {
	s.Cycles = p.uint(`{"Cycles":`)
	s.Acts = p.uint(`,"Acts":`)
	s.Pres = p.uint(`,"Pres":`)
	s.Reads = p.uint(`,"Reads":`)
	s.Writes = p.uint(`,"Writes":`)
	s.Refs = p.uint(`,"Refs":`)
	s.RFMs = p.uint(`,"RFMs":`)
	s.VRRs = p.uint(`,"VRRs":`)
	s.VRRFull = p.uint(`,"VRRFull":`)
	s.VRRPartial = p.uint(`,"VRRPartial":`)
	s.MetaReads = p.uint(`,"MetaReads":`)
	s.MetaWrites = p.uint(`,"MetaWrites":`)
	s.DemandBusy = p.uint(`,"DemandBusy":`)
	s.RefBusy = p.uint(`,"RefBusy":`)
	s.PrevRefBusy = p.uint(`,"PrevRefBusy":`)
	s.VRRRestoreNs = p.float(`,"VRRRestoreNs":`)
	s.RefRestoreNs = p.float(`,"RefRestoreNs":`)
	s.ReadLatencySum = p.uint(`,"ReadLatencySum":`)
	s.ReadCount = p.uint(`,"ReadCount":`)
	p.want("}")
}

// cellParser is DecodeCell's cursor. Any mismatch sets bad; the caller
// then discards what was parsed.
type cellParser struct {
	b   []byte
	bad bool
}

// lit consumes s if the input continues with it.
func (p *cellParser) lit(s string) bool {
	if len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

func (p *cellParser) want(s string) {
	if !p.lit(s) {
		p.bad = true
	}
}

// floats decodes a []float64: null (nil), [] (empty, non-nil) or a
// list of numbers.
func (p *cellParser) floats() []float64 {
	if p.lit("null") {
		return nil
	}
	p.want("[")
	if p.bad {
		return nil
	}
	n := 0
	for _, c := range p.b {
		if c == ']' {
			break
		}
		if c == ',' {
			n++
		}
	}
	out := make([]float64, 0, n+1)
	if p.lit("]") {
		return out
	}
	for !p.bad {
		out = append(out, p.float(""))
		if !p.lit(",") {
			break
		}
	}
	p.want("]")
	return out
}

// float consumes name, then a number as encoding/json decodes it into
// a float64.
func (p *cellParser) float(name string) float64 {
	p.want(name)
	f, err := strconv.ParseFloat(string(p.number()), 64)
	if err != nil {
		p.bad = true
	}
	return f
}

// uint consumes name, then a number as encoding/json decodes it into
// a uint64: a fraction, an exponent or a sign is encoding/json's
// error to report.
func (p *cellParser) uint(name string) uint64 {
	p.want(name)
	u, err := strconv.ParseUint(string(p.number()), 10, 64)
	if err != nil {
		p.bad = true
	}
	return u
}

// int consumes name, then a number as encoding/json decodes it into
// an int.
func (p *cellParser) int(name string) int {
	p.want(name)
	i, err := strconv.ParseInt(string(p.number()), 10, strconv.IntSize)
	if err != nil {
		p.bad = true
	}
	return int(i)
}

// number consumes one token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it. It
// rejects what strconv would take but JSON does not: a leading +, a
// leading zero, a bare ".5" or "5.", hex, underscores, Inf and NaN.
func (p *cellParser) number() []byte {
	b := p.b
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		p.bad = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			p.bad = true
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			p.bad = true
			return nil
		}
		i = j
	}
	p.b = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
