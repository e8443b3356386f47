package service

import (
	"encoding/json"
	"strconv"

	"pacram/internal/jsonexact"
)

// The SSE cell frame is encoded once, when the cell finishes, and its
// bytes are shared by every subscriber; the client decodes it without
// reflection. Both sides keep the exact-JSON contract of package
// jsonexact, so the wire is json.Marshal of a CellEvent in an
// "event: cell" frame.

// appendCellFrame appends ev's complete SSE frame to dst: exactly the
// bytes of "event: cell\ndata: %s\n\n" around json.Marshal(ev). Fields
// follow CellEvent's declaration order and its omitempty rules; strings
// are written by jsonexact.AppendString.
func appendCellFrame(dst []byte, ev CellEvent) []byte {
	dst = append(dst, "event: cell\ndata: {\"key\":"...)
	dst = jsonexact.AppendString(dst, ev.Key)
	if ev.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if ev.Coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	if ev.Worker != "" {
		dst = append(dst, `,"worker":`...)
		dst = jsonexact.AppendString(dst, ev.Worker)
	}
	if ev.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = jsonexact.AppendString(dst, ev.Error)
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
// fields in order, an empty optional field omitted, and the rest as a
// jsonexact.Reader accepts it. Whatever it accepts, json.Unmarshal
// decodes to the same CellEvent (FuzzCellFrame).
func parseCellEvent(data []byte) (CellEvent, bool) {
	var ev CellEvent
	p := jsonexact.NewReader(data)
	ev.Key = p.Str(`{"key":`)
	ev.Cached = p.Lit(`,"cached":true`)
	ev.Coalesced = p.Lit(`,"coalesced":true`)
	// omitempty never writes an optional field with its empty value.
	written := true
	if p.Lit(`,"worker":`) {
		ev.Worker = p.Str("")
		written = written && ev.Worker != ""
	}
	if p.Lit(`,"error":`) {
		ev.Error = p.Str("")
		written = written && ev.Error != ""
	}
	ev.Done = p.Int(`,"done":`)
	ev.Total = p.Int(`,"total":`)
	if p.Lit(`,"waitMicros":`) {
		ev.WaitMicros = int64(p.Int(""))
		written = written && ev.WaitMicros != 0
	}
	if p.Lit(`,"computeMicros":`) {
		ev.ComputeMicros = int64(p.Int(""))
		written = written && ev.ComputeMicros != 0
	}
	p.Want("}")
	return ev, written && p.End()
}
