package jsonexact

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzExactJSON checks both halves against encoding/json, the
// reference: AppendString writes json.Marshal's bytes for any string,
// and every token a Reader accepts as a string, an int, a uint64, a
// float64 or a []float64 decodes under json.Unmarshal to the same value
// (floats compared bit for bit).
func FuzzExactJSON(f *testing.F) {
	for _, s := range []string{
		`"fig17@9f"`, `""`, `"a<b"`, `"a\u003cb"`, `"q\"q"`, "\"\x7f\"", "\"\xff\"", "\" \"",
		`0`, `-0`, `01`, `+1`, `-`, `9223372036854775807`, `9223372036854775808`,
		`18446744073709551615`, `18446744073709551616`, `-9223372036854775808`,
		`0.5`, `.5`, `5.`, `5e`, `1e-7`, `1E+300`, `1e400`, `-0.0`, `0x40`, `1_9`, `Inf`, `NaN`,
		`null`, `[]`, `[0.5,1.25]`, `[0.5,]`, `[0.5 1.25]`, `[1e400]`, `[`, ``, ` 1`, `1 `,
		`a<b`, `x>y`, `&`, `a\b`, "\u2028", "\x7f", "\x1f", "\xff", "\u00e9",
	} {
		f.Add(s, []byte(s))
	}
	f.Fuzz(func(t *testing.T, s string, data []byte) {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal: %s", s, got[1:], want)
		}
		check := func(kind string, read func(*Reader) any, ref any) {
			r := NewReader(data)
			v := read(&r)
			if !r.End() {
				return
			}
			ptr := reflect.New(reflect.TypeOf(ref))
			if err := json.Unmarshal(data, ptr.Interface()); err != nil {
				t.Fatalf("%s accepted %q as %v; json.Unmarshal: %v", kind, data, v, err)
			}
			if w := ptr.Elem().Interface(); !same(v, w) {
				t.Fatalf("%s accepted %q as %#v; json.Unmarshal: %#v", kind, data, v, w)
			}
		}
		check("Str", func(r *Reader) any { return r.Str("") }, "")
		check("Int", func(r *Reader) any { return r.Int("") }, 0)
		check("Uint", func(r *Reader) any { return r.Uint("") }, uint64(0))
		check("Float", func(r *Reader) any { return r.Float("") }, 0.0)
		check("Floats", func(r *Reader) any { return r.Floats("") }, []float64(nil))
	})
}

// same compares decoded values, floats by their bits (so -0 and 0
// differ), and a nil slice differs from an empty one.
func same(a, b any) bool {
	switch a := a.(type) {
	case float64:
		return math.Float64bits(a) == math.Float64bits(b.(float64))
	case []float64:
		b := b.([]float64)
		if (a == nil) != (b == nil) || len(a) != len(b) {
			return false
		}
		for i := range a {
			if !same(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	return a == b
}
