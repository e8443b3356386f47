package runner

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pacram/internal/memsys"
	"pacram/internal/mitigation"
	"pacram/internal/sim"
	"pacram/internal/trace"
)

// fig17Key and fig17Result are one real fig17 cell: its job key and the
// result the simulator stored under it.
const fig17Key = "mix00@f45b4e59d6d566c7"

var fig17Result = sim.Result{
	IPC:    []float64{0.5804504295333178, 0.6423638991488678, 0.25744664418299307, 0.8279345103802289},
	Cycles: 155372,
	Stats: memsys.Stats{Cycles: 155372, Acts: 1456, Pres: 1468, Reads: 2059, Writes: 870, Refs: 26,
		DemandBusy: 149968, RefBusy: 792064, RefRestoreNs: 15463.5, ReadLatencySum: 1147179, ReadCount: 2059},
}

// simResult runs a small simulation on channels channels: a real
// result, with ChannelStats when channels > 1.
func simResult(t testing.TB, channels int) sim.Result {
	t.Helper()
	spec, err := trace.SpecByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	o := sim.DefaultOptions(spec, spec)
	o.MemCfg = sim.SmallMemConfig()
	o.MemCfg.Geometry.Channels = channels
	o.Mitigation = mitigation.NameRFM
	o.NRH = 64
	o.Instructions, o.Warmup = 4000, 400
	res, err := sim.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEncodeCellEnvelopeBytes: PutCell stores, and EncodeCellEnvelope
// returns, exactly the two-step json.Marshal envelope (the result, then
// the entry around it) that every stored file and store hash was
// written with.
func TestEncodeCellEnvelopeBytes(t *testing.T) {
	for name, res := range map[string]sim.Result{"single-channel": fig17Result, "multi-channel": simResult(t, 4)} {
		t.Run(name, func(t *testing.T) {
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(entry{Key: fig17Key, Fingerprint: fullFingerprint("scenario:v1"), Result: raw})
			if err != nil {
				t.Fatal(err)
			}
			got, err := EncodeCellEnvelope("scenario:v1", fig17Key, res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("EncodeCellEnvelope:\n%s\nwant\n%s", got, want)
			}
			m := NewMemStore(0)
			if err := PutCell(m, "h", "scenario:v1", fig17Key, res); err != nil {
				t.Fatal(err)
			}
			if stored, _, _ := m.Get("h"); !bytes.Equal(stored, want) {
				t.Fatalf("PutCell stored:\n%s\nwant\n%s", stored, want)
			}
		})
	}
}

// TestGetCellTakesFastPath: the one-pass decode accepts a sim.Result
// envelope as PutCell writes it, decodes the stored value, and declines
// it under another key or fingerprint; DecodeCellEnvelope decodes the
// same value.
func TestGetCellTakesFastPath(t *testing.T) {
	data, err := EncodeCellEnvelope("fp", fig17Key, fig17Result)
	if err != nil {
		t.Fatal(err)
	}
	var out sim.Result
	if !decodeCellFast(data, fullFingerprint("fp"), fig17Key, &out) {
		t.Fatalf("fast path declined PutCell's bytes: %s", data)
	}
	if !sameBits(reflect.ValueOf(out), reflect.ValueOf(fig17Result)) {
		t.Fatalf("fast path decoded %+v, want %+v", out, fig17Result)
	}
	var remote sim.Result
	if err := DecodeCellEnvelope(data, "fp", fig17Key, &remote); err != nil || !reflect.DeepEqual(remote, fig17Result) {
		t.Fatalf("DecodeCellEnvelope = %+v, %v", remote, err)
	}
	for _, c := range []struct{ fp, key string }{{"fp", "mix01@f45b4e59d6d566c7"}, {"fp2", fig17Key}} {
		if decodeCellFast(data, fullFingerprint(c.fp), c.key, &out) {
			t.Errorf("fast path accepted the envelope under fingerprint %q, key %q", c.fp, c.key)
		}
	}
}

// FuzzGetCellResult puts arbitrary envelope bytes in a MemStore and
// reads them as a sim.Result, the type with a one-pass decode
// (checkGetCell): near misses of PutCell's bytes must decode as the
// two-pass reference does.
func FuzzGetCellResult(f *testing.F) {
	ffp := fullFingerprint("fp")
	enc := func(v string) string { b, _ := json.Marshal(v); return string(b) }
	prefix := `{"key":"cell/a","fingerprint":` + enc(ffp) + `,"result":`
	good, err := json.Marshal(fig17Result)
	if err != nil {
		f.Fatal(err)
	}
	multi, err := json.Marshal(simResult(f, 4))
	if err != nil {
		f.Fatal(err)
	}
	withProfile, err := json.Marshal(sim.Result{Cycles: 1, Profile: &sim.Profile{Engine: sim.EngineEventHorizon}})
	if err != nil {
		f.Fatal(err)
	}
	g := string(good)
	for _, seed := range []struct{ data, key string }{
		{prefix + g + `}`, "cell/a"},
		{prefix + string(multi) + `}`, "cell/a"},
		{prefix + g + `}`, "cell/b"},
		{prefix + strings.Replace(g, `"Cycles":155372,`, `"Cycles":+1,`, 1) + `}`, "cell/a"},
		{prefix + strings.Replace(g, `"Cycles":155372,`, `"Cycles":01,`, 1) + `}`, "cell/a"},
		{prefix + strings.Replace(g, `"ScaledNRH":0`, `"ScaledNRH":-0`, 1) + `}`, "cell/a"},
		{prefix + strings.Replace(g, `"Cycles":155372,`, `"Cycles":1e3,`, 1) + `}`, "cell/a"},
		{prefix + strings.Replace(g, `"Cycles":155372,`, `"Cycles": 1,`, 1) + `}`, "cell/a"},
		{prefix + g + `} `, "cell/a"},
		{prefix + g + `}x`, "cell/a"},
		{prefix + g + `,"result":` + g + `}`, "cell/a"},
		{prefix + g + `,"key":"cell/b"}`, "cell/a"},
		{prefix + string(withProfile) + `}`, "cell/a"},
		{prefix + `null}`, "cell/a"},
		{"{\"key\":\"cell/\xff\",\"fingerprint\":" + enc(ffp) + `,"result":` + g + `}`, "cell/\xff"},
		{`{"key":"cell/\ufffd","fingerprint":` + enc(ffp) + `,"result":` + g + `}`, "cell/\xff"},
		{`{"key":"cell/�","fingerprint":` + enc(ffp) + `,"result":` + g + `}`, "cell/\xff"},
		{`{"key":"cell\/a","fingerprint":` + enc(ffp) + `,"result":` + g + `}`, "cell/a"},
	} {
		f.Add([]byte(seed.data), seed.key)
	}
	f.Fuzz(checkGetCell[sim.Result])
}
