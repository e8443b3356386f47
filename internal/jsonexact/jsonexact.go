// Package jsonexact is the one place that knows exactly which bytes
// json.Marshal writes, for the payloads that are encoded and decoded
// without reflection: job keys, store envelopes, SSE cell frames and
// sim.Result. AppendString writes a string as json.Marshal does; a
// Reader accepts only the one form json.Marshal writes and reads its
// numbers with the strconv calls encoding/json makes, so whatever it
// accepts, json.Unmarshal decodes to the same value (FuzzExactJSON).
// encoding/json is the fallback for everything else: a caller whose
// Reader ends bad decodes the same bytes with json.Unmarshal.
package jsonexact

import (
	"encoding/json"
	"strconv"
)

// AppendString appends s as json.Marshal writes it. A string of plain
// printable ASCII is appended as it is; any other goes through
// json.Marshal itself (HTML-safe escapes, U+2028/U+2029, invalid UTF-8
// as U+FFFD).
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plain reports whether json.Marshal writes c inside a string as
// itself: printable ASCII except the quote, the backslash and the
// HTML-escaped <, > and &.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Reader is a strict cursor over the bytes json.Marshal writes: no
// whitespace, fields in a fixed order, strings of plain bytes and
// numbers in JSON's grammar. The value methods consume a leading
// literal (a field name, or "" for none) and then the value. The first
// mismatch leaves the reader bad, and End reports false; the caller
// then discards what it read.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// End reports whether every read matched and no byte remains.
func (r *Reader) End() bool { return !r.bad && len(r.b) == 0 }

// Lit consumes s if the reader is good and the input continues with s.
func (r *Reader) Lit(s string) bool {
	if r.bad || len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		return false
	}
	r.b = r.b[len(s):]
	return true
}

// Want consumes s or leaves the reader bad.
func (r *Reader) Want(s string) {
	if !r.Lit(s) {
		r.bad = true
	}
}

// Str consumes name, then a quoted string of plain bytes.
func (r *Reader) Str(name string) string {
	if r.Lit(name) && r.Lit(`"`) {
		for i, c := range r.b {
			if c == '"' {
				s := string(r.b[:i])
				r.b = r.b[i+1:]
				return s
			}
			if !plain(c) {
				break
			}
		}
	}
	r.bad = true
	return ""
}

// Int consumes name, then a number as encoding/json decodes it into
// an int.
func (r *Reader) Int(name string) int {
	i, err := strconv.ParseInt(string(r.number(name)), 10, strconv.IntSize)
	r.bad = r.bad || err != nil
	return int(i)
}

// Uint consumes name, then a number as encoding/json decodes it into
// a uint64: a fraction, an exponent or a sign is encoding/json's error
// to report.
func (r *Reader) Uint(name string) uint64 {
	u, err := strconv.ParseUint(string(r.number(name)), 10, 64)
	r.bad = r.bad || err != nil
	return u
}

// Float consumes name, then a number as encoding/json decodes it into
// a float64.
func (r *Reader) Float(name string) float64 {
	f, err := strconv.ParseFloat(string(r.number(name)), 64)
	r.bad = r.bad || err != nil
	return f
}

// Floats consumes name, then a []float64: null (nil), [] (empty,
// non-nil) or a list of numbers.
func (r *Reader) Floats(name string) []float64 {
	r.Want(name)
	if r.Lit("null") {
		return nil
	}
	r.Want("[")
	if r.bad {
		return nil
	}
	n := 0 // commas before the closing bracket: the slice is sized once
	for _, c := range r.b {
		if c == ']' {
			break
		}
		if c == ',' {
			n++
		}
	}
	out := make([]float64, 0, n+1)
	if r.Lit("]") {
		return out
	}
	for {
		out = append(out, r.Float(""))
		if !r.Lit(",") {
			break
		}
	}
	r.Want("]")
	return out
}

// number consumes name, then one token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it. It
// rejects what strconv would take but JSON does not: a leading +, a
// leading zero, a bare ".5" or "5.", hex, underscores, Inf and NaN.
func (r *Reader) number(name string) []byte {
	r.Want(name)
	b, i := r.b, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digits(b, i)
	ok := !r.bad && j > i && (b[i] != '0' || j == i+1)
	i = j
	if ok && i < len(b) && b[i] == '.' {
		i = digits(b, i+1)
		ok = b[i-1] != '.'
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j = digits(b, i)
		ok, i = j > i, j
	}
	if !ok {
		r.bad = true
		return nil
	}
	r.b = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
