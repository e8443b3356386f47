package service

import (
	"encoding/json"
	"strconv"
)

// The SSE cell frame is encoded once, when the cell finishes, and its
// bytes are shared by every subscriber; the client decodes it without
// reflection. Both sides are exact about the one form the server
// writes and defer to encoding/json for everything else, so the wire
// is json.Marshal of a CellEvent in an "event: cell" frame.

// appendCellFrame appends ev's complete SSE frame to dst: exactly the
// bytes of "event: cell\ndata: %s\n\n" around json.Marshal(ev). Fields
// follow CellEvent's declaration order and its omitempty rules; a
// string that is not plain printable ASCII is escaped by encoding/json
// itself (HTML-safe, U+2028/U+2029, invalid UTF-8).
func appendCellFrame(dst []byte, ev CellEvent) []byte {
	dst = append(dst, "event: cell\ndata: {\"key\":"...)
	dst = appendJSONString(dst, ev.Key)
	if ev.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if ev.Coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	if ev.Worker != "" {
		dst = append(dst, `,"worker":`...)
		dst = appendJSONString(dst, ev.Worker)
	}
	if ev.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, ev.Error)
	}
	dst = append(dst, `,"done":`...)
	dst = strconv.AppendInt(dst, int64(ev.Done), 10)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(ev.Total), 10)
	if ev.WaitMicros != 0 {
		dst = append(dst, `,"waitMicros":`...)
		dst = strconv.AppendInt(dst, ev.WaitMicros, 10)
	}
	if ev.ComputeMicros != 0 {
		dst = append(dst, `,"computeMicros":`...)
		dst = strconv.AppendInt(dst, ev.ComputeMicros, 10)
	}
	return append(dst, "}\n\n"...)
}

// appendJSONString appends s as encoding/json writes it.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainJSON(s[i]) {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plainJSON reports whether encoding/json writes c inside a string
// as itself: printable ASCII except the quote, the backslash and the
// HTML-escaped <, > and &.
func plainJSON(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// decodeCellEvent decodes a cell frame's data line: with the strict
// parser when it is what appendCellFrame writes, with encoding/json
// otherwise (a field a newer server added, say).
func decodeCellEvent(data []byte) (CellEvent, error) {
	if ev, ok := parseCellEvent(data); ok {
		return ev, nil
	}
	var ev CellEvent
	err := json.Unmarshal(data, &ev)
	return ev, err
}

// parseCellEvent accepts only appendCellFrame's data line: CellEvent's
// fields in order, an empty optional field omitted, strings of plain
// printable ASCII and integers in strconv's form. Whatever it accepts,
// json.Unmarshal decodes to the same CellEvent (FuzzCellFrame).
func parseCellEvent(data []byte) (CellEvent, bool) {
	var ev CellEvent
	p := frameParser{b: data}
	p.want(`{"key":`)
	ev.Key = p.str()
	ev.Cached = p.lit(`,"cached":true`)
	ev.Coalesced = p.lit(`,"coalesced":true`)
	if p.lit(`,"worker":`) {
		ev.Worker = p.nonEmpty(p.str())
	}
	if p.lit(`,"error":`) {
		ev.Error = p.nonEmpty(p.str())
	}
	p.want(`,"done":`)
	ev.Done = int(p.int(intDigits))
	p.want(`,"total":`)
	ev.Total = int(p.int(intDigits))
	if p.lit(`,"waitMicros":`) {
		ev.WaitMicros = p.nonZero(p.int(int64Digits))
	}
	if p.lit(`,"computeMicros":`) {
		ev.ComputeMicros = p.nonZero(p.int(int64Digits))
	}
	p.want("}")
	return ev, !p.bad && len(p.b) == 0
}

// Digit counts that always fit an int and an int64; longer numbers go
// to encoding/json, which checks their range.
const (
	intDigits   = 9 * (strconv.IntSize / 32)
	int64Digits = 18
)

// frameParser is parseCellEvent's cursor. Any mismatch sets bad; the
// caller then discards what was parsed.
type frameParser struct {
	b   []byte
	bad bool
}

// lit consumes s if the input continues with it.
func (p *frameParser) lit(s string) bool {
	if len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

func (p *frameParser) want(s string) {
	if !p.lit(s) {
		p.bad = true
	}
}

// str consumes a quoted string of plainJSON bytes.
func (p *frameParser) str() string {
	if p.lit(`"`) {
		for i, c := range p.b {
			if c == '"' {
				s := string(p.b[:i])
				p.b = p.b[i+1:]
				return s
			}
			if !plainJSON(c) {
				break
			}
		}
	}
	p.bad = true
	return ""
}

// int consumes an integer as strconv.AppendInt writes it (no leading
// zero, no "-0") of at most digits digits.
func (p *frameParser) int(digits int) int64 {
	neg := p.lit("-")
	n := 0
	for n < len(p.b) && n <= digits && '0' <= p.b[n] && p.b[n] <= '9' {
		n++
	}
	if n == 0 || n > digits || p.b[0] == '0' && (n > 1 || neg) {
		p.bad = true
		return 0
	}
	var v int64
	for _, c := range p.b[:n] {
		v = v*10 + int64(c-'0')
	}
	p.b = p.b[n:]
	if neg {
		v = -v
	}
	return v
}

// nonEmpty and nonZero reject an optional field written with its empty
// value, which omitempty never writes.
func (p *frameParser) nonEmpty(s string) string {
	if s == "" {
		p.bad = true
	}
	return s
}

func (p *frameParser) nonZero(v int64) int64 {
	if v == 0 {
		p.bad = true
	}
	return v
}
