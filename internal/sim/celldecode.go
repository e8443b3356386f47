package sim

import (
	"pacram/internal/jsonexact"
	"pacram/internal/memsys"
)

// DecodeCell decodes data into r when data is exactly what json.Marshal
// writes for a Result: fields in declaration order, ChannelStats present
// (non-empty) or omitted, Profile omitted, and the rest as a
// jsonexact.Reader accepts it. It reports false for anything else and
// then leaves r untouched; the caller falls back to encoding/json, the
// reference. On true, *r is what json.Unmarshal decodes from data into
// a zero Result (runner's FuzzGetCellResult checks this on any bytes).
//
// It is not a json.Unmarshaler: encoding/json would still scan the whole
// input before calling it, which is most of the cost it exists to skip.
// The result store finds it through an optional interface.
func (r *Result) DecodeCell(data []byte) bool {
	var v Result
	p := jsonexact.NewReader(data)
	v.IPC = p.Floats(`{"IPC":`)
	v.Cycles = p.Uint(`,"Cycles":`)
	p.Want(`,"Stats":`)
	readStats(&p, &v.Stats)
	v.Energy.ActPre = p.Float(`,"Energy":{"ActPre":`)
	v.Energy.Column = p.Float(`,"Column":`)
	v.Energy.Refresh = p.Float(`,"Refresh":`)
	v.Energy.PrevRefresh = p.Float(`,"PrevRefresh":`)
	v.Energy.Background = p.Float(`,"Background":`)
	p.Want("}")
	if p.Lit(`,"ChannelStats":[`) {
		for {
			var s memsys.Stats
			readStats(&p, &s)
			v.ChannelStats = append(v.ChannelStats, s)
			if !p.Lit(",") {
				break
			}
		}
		p.Want("]")
	}
	v.PrevRefBusyFraction = p.Float(`,"PrevRefBusyFraction":`)
	v.PartialFraction = p.Float(`,"PartialFraction":`)
	v.ScaledNRH = p.Int(`,"ScaledNRH":`)
	p.Want("}")
	if !p.End() {
		return false
	}
	*r = v
	return true
}

// readStats decodes one memsys.Stats object.
func readStats(p *jsonexact.Reader, s *memsys.Stats) {
	s.Cycles = p.Uint(`{"Cycles":`)
	s.Acts = p.Uint(`,"Acts":`)
	s.Pres = p.Uint(`,"Pres":`)
	s.Reads = p.Uint(`,"Reads":`)
	s.Writes = p.Uint(`,"Writes":`)
	s.Refs = p.Uint(`,"Refs":`)
	s.RFMs = p.Uint(`,"RFMs":`)
	s.VRRs = p.Uint(`,"VRRs":`)
	s.VRRFull = p.Uint(`,"VRRFull":`)
	s.VRRPartial = p.Uint(`,"VRRPartial":`)
	s.MetaReads = p.Uint(`,"MetaReads":`)
	s.MetaWrites = p.Uint(`,"MetaWrites":`)
	s.DemandBusy = p.Uint(`,"DemandBusy":`)
	s.RefBusy = p.Uint(`,"RefBusy":`)
	s.PrevRefBusy = p.Uint(`,"PrevRefBusy":`)
	s.VRRRestoreNs = p.Float(`,"VRRRestoreNs":`)
	s.RefRestoreNs = p.Float(`,"RefRestoreNs":`)
	s.ReadLatencySum = p.Uint(`,"ReadLatencySum":`)
	s.ReadCount = p.Uint(`,"ReadCount":`)
	p.Want("}")
}
