package sim

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"pacram/internal/memsys"
)

// specialFloats are the float64s whose JSON form takes each of
// encoding/json's branches: -0, subnormals, the 'e' format above 1e21
// and below 1e-6, and the extremes.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.2250738585072e-310, math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 1e21, 1e20, 999999999999999999999, 1e-7, 1e-6, 9.99e-7,
	0.5804504295333178, 15463.5, -1.5, 1, 123456789,
}

// randomFloat returns a special float or a random finite one.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.IntN(3) {
	case 0:
		return specialFloats[rng.IntN(len(specialFloats))]
	case 1:
		return rng.Float64() * math.Pow(10, float64(rng.IntN(40)-20))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// fillRandom sets every float64, uint64 and int field of the struct v
// points at, recursively, so a field added to Result, memsys.Stats or
// energy.Breakdown is covered without editing this test.
func fillRandom(v reflect.Value, rng *rand.Rand) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(randomFloat(rng))
		case reflect.Uint64:
			f.SetUint([]uint64{0, 1, math.MaxUint64, rng.Uint64(), rng.Uint64N(1e6)}[rng.IntN(5)])
		case reflect.Int:
			f.SetInt([]int64{0, -1, math.MinInt, math.MaxInt, rng.Int64N(1e6) - 5e5}[rng.IntN(5)])
		case reflect.Struct:
			fillRandom(f, rng)
		}
	}
}

// randomResult builds a Result as the simulator could return it:
// IPC nil, empty or 1-8 cores, and ChannelStats absent or 1-8 channels.
func randomResult(rng *rand.Rand) Result {
	var r Result
	fillRandom(reflect.ValueOf(&r).Elem(), rng)
	switch n := rng.IntN(10) - 1; n {
	case -1:
		r.IPC = nil
	default:
		r.IPC = make([]float64, n)
		for i := range r.IPC {
			r.IPC[i] = randomFloat(rng)
		}
	}
	if rng.IntN(2) == 0 {
		r.ChannelStats = make([]memsys.Stats, 1+rng.IntN(8))
		for i := range r.ChannelStats {
			fillRandom(reflect.ValueOf(&r.ChannelStats[i]).Elem(), rng)
		}
	}
	return r
}

// sameBits reports whether a and b are deeply equal with every float
// compared by its bits, so -0 and 0 differ.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return false
		}
		if a.Kind() == reflect.Pointer {
			return a.IsNil() || sameBits(a.Elem(), b.Elem())
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// TestDecodeCellRoundTrip: DecodeCell accepts json.Marshal's bytes for
// every Result without a Profile and returns the same value, bit for
// bit.
func TestDecodeCellRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 17))
	for i := 0; i < 3000; i++ {
		want := randomResult(rng)
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		if !got.DecodeCell(data) {
			t.Fatalf("DecodeCell rejected json.Marshal's bytes:\n%s", data)
		}
		if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("DecodeCell(%s)\n = %+v\nwant %+v", data, got, want)
		}
	}
}

// TestDecodeCellRejects: bytes that json.Marshal does not write for a
// Result are declined, and the receiver is left as it was, even where
// encoding/json would decode them.
func TestDecodeCellRejects(t *testing.T) {
	good, err := json.Marshal(Result{
		IPC: []float64{0.5, 1.25}, Cycles: 9, ScaledNRH: 64,
		ChannelStats: []memsys.Stats{{Cycles: 9}, {Cycles: 9, Acts: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var plain Result
	if !plain.DecodeCell(good) {
		t.Fatalf("DecodeCell rejected %s", good)
	}
	withProfile, err := json.Marshal(Result{Profile: &Profile{Engine: EngineEventHorizon}})
	if err != nil {
		t.Fatal(err)
	}
	g := string(good)
	for name, data := range map[string]string{
		"plus sign":           strings.Replace(g, `"Cycles":9,`, `"Cycles":+9,`, 1),
		"leading zero":        strings.Replace(g, `"Cycles":9,`, `"Cycles":09,`, 1),
		"bare fraction":       strings.Replace(g, `[0.5,`, `[.5,`, 1),
		"trailing dot":        strings.Replace(g, `[0.5,`, `[5.,`, 1),
		"empty exponent":      strings.Replace(g, `[0.5,`, `[5e,`, 1),
		"hex":                 strings.Replace(g, `"ScaledNRH":64`, `"ScaledNRH":0x40`, 1),
		"underscore":          strings.Replace(g, `"Cycles":9,`, `"Cycles":1_9,`, 1),
		"infinity":            strings.Replace(g, `[0.5,`, `[Inf,`, 1),
		"uint fraction":       strings.Replace(g, `"Cycles":9,`, `"Cycles":9.0,`, 1),
		"uint out of range":   strings.Replace(g, `"Cycles":9,`, `"Cycles":18446744073709551616,`, 1),
		"float out of range":  strings.Replace(g, `[0.5,`, `[1e400,`, 1),
		"whitespace":          strings.Replace(g, `"Cycles":9,`, `"Cycles": 9,`, 1),
		"reordered":           strings.Replace(g, `"IPC":[0.5,1.25],"Cycles":9`, `"Cycles":9,"IPC":[0.5,1.25]`, 1),
		"other case":          strings.Replace(g, `"IPC"`, `"ipc"`, 1),
		"empty ChannelStats":  g[:strings.Index(g, `,"ChannelStats"`)] + `,"ChannelStats":[]` + g[strings.Index(g, `,"PrevRefBusyFraction"`):],
		"null ChannelStats":   g[:strings.Index(g, `,"ChannelStats"`)] + `,"ChannelStats":null` + g[strings.Index(g, `,"PrevRefBusyFraction"`):],
		"trailing comma":      strings.Replace(g, `1.25]`, `1.25,]`, 1),
		"trailing bytes":      g + " ",
		"truncated":           g[:len(g)-1],
		"duplicate field":     g[:len(g)-1] + `,"ScaledNRH":8}`,
		"Profile present":     string(withProfile),
		"not an object":       `[1,2]`,
		"null":                `null`,
		"empty":               ``,
		"IPC not a list":      strings.Replace(g, `[0.5,1.25]`, `0.5`, 1),
		"IPC trailing number": strings.Replace(g, `[0.5,1.25]`, `[0.5 1.25]`, 1),
	} {
		if data == g {
			t.Fatalf("%s: mutation left the bytes unchanged", name)
		}
		r := Result{Cycles: 77}
		if r.DecodeCell([]byte(data)) {
			t.Errorf("%s: DecodeCell accepted %s", name, data)
		}
		if !reflect.DeepEqual(r, Result{Cycles: 77}) {
			t.Errorf("%s: a declined decode wrote the receiver: %+v", name, r)
		}
	}
}
