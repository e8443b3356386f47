package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"pacram/internal/exp"
	"pacram/internal/memsys"
	"pacram/internal/sim"
	"pacram/internal/trace"
)

// jobKey is the struct job keys were first defined as the JSON
// encoding of. keyEncoder must write exactly json.Marshal(jobKey)'s
// bytes, so every key, and every stored cell, stays valid; the tests
// below hold it to that.
type jobKey struct {
	V              int            `json:"v"`
	Mem            memsys.Config  `json:"mem"`
	Mitigation     string         `json:"mitigation"`
	NRH            int            `json:"nrh"`
	PaCRAM         *pacramKey     `json:"pacram,omitempty"`
	Periodic       bool           `json:"periodic,omitempty"`
	PeriodicFactor float64        `json:"periodicFactor,omitempty"`
	Insts          uint64         `json:"insts"`
	Warmup         uint64         `json:"warmup"`
	MaxCycles      uint64         `json:"maxCycles,omitempty"`
	Seed           uint64         `json:"seed"`
	Cores          []resolvedCore `json:"cores"`
}

// marshalKey is the reference encoding of one cell's key.
func marshalKey(rc *resolvedCell, cores []resolvedCore) ([]byte, error) {
	return json.Marshal(jobKey{
		V:              1,
		Mem:            rc.MemCfg,
		Mitigation:     rc.Mitigation,
		NRH:            rc.NRH,
		PaCRAM:         rc.PacKey,
		Periodic:       rc.Periodic,
		PeriodicFactor: rc.PeriodicFactor,
		Insts:          rc.Insts,
		Warmup:         rc.Warmup,
		MaxCycles:      rc.MaxCycles,
		Seed:           rc.Seed,
		Cores:          cores,
	})
}

// tinySysOptions is the scale of testdata/figures-tiny.golden.
func tinySysOptions() exp.SysOptions {
	o := exp.DefaultSysOptions()
	o.Instructions, o.Warmup, o.MixCount = 15_000, 1_500, 1
	o.NRHs = []int{256, 64}
	o.Mitigations = []string{"PARA", "RFM"}
	o.Workloads = []string{"429.mcf", "453.povray"}
	return o
}

// TestJobKeyMatchesMarshal compiles every catalog spec, and the paper
// figures at the default and the tiny golden scale, and checks every
// cell's key against the hash of json.Marshal(jobKey). Between them
// the specs sweep memory (several memo entries per plan), set
// periodicFactor, run with and without PaCRAM, and use attacker,
// phased and replay cores. Each plan's Mem memo must hold exactly the
// marshaled bytes of its config, so no cell can have collapsed onto
// another's key through a stale entry.
func TestJobKeyMatchesMarshal(t *testing.T) {
	specs, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []exp.SysOptions{exp.DefaultSysOptions(), tinySysOptions()} {
		for _, id := range figureIDs() {
			s, err := FigureSpec(id, o)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
	}
	var cells, memos int
	seen := map[string]bool{}
	for _, s := range specs {
		p, err := s.Compile()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, c := range p.Cells() {
			cells++
			b, err := marshalKey(c.rc, c.cores)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			sum := sha256.Sum256(b)
			name := c.Key[:strings.LastIndexByte(c.Key, '@')]
			if want := name + "@" + hex.EncodeToString(sum[:8]); c.Key != want {
				t.Errorf("%s: key %s, json.Marshal gives %s", s.Name, c.Key, want)
			}
			for _, core := range c.cores {
				switch {
				case core.Attack != nil:
					seen["attacker"] = true
				case core.Phased != nil:
					seen["phased"] = true
				case core.Replay != nil:
					seen["replay"] = true
				}
			}
			seen["pacram"] = seen["pacram"] || c.rc.PacKey != nil
			seen["periodicFactor"] = seen["periodicFactor"] || c.rc.PeriodicFactor != 0
		}
		if len(p.keys.mems) > 1 {
			seen["swept memory"] = true
		}
		for cfg, enc := range p.keys.mems {
			memos++
			if want, _ := json.Marshal(cfg); !bytes.Equal(enc, want) {
				t.Errorf("%s: memo holds %s for a config that marshals to %s", s.Name, enc, want)
			}
		}
	}
	for _, k := range []string{"attacker", "phased", "replay", "pacram", "periodicFactor", "swept memory"} {
		if !seen[k] {
			t.Errorf("no compiled cell covers %s", k)
		}
	}
	t.Logf("%d cells over %d specs, %d memoized memory configs", cells, len(specs), memos)
}

// FuzzJobKey varies every scalar field of a key over a fixed memory
// config and core list: the encoder must write json.Marshal's bytes,
// and fail exactly where json.Marshal fails (NaN and Inf).
func FuzzJobKey(f *testing.F) {
	f.Add("PARA", "H5", true, 64, 2, false, 0.0, uint64(60_000), uint64(6_000), uint64(0), uint64(0x51317))
	f.Add("<&\" >", "\xff\xfe", true, -1, -3, true, math.Copysign(0, -1), uint64(0), uint64(0), uint64(1), uint64(0))
	f.Add("None", "", false, 0, 0, false, 5e-324, uint64(1)<<63, uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(1))
	f.Add("RFM", "S6", false, math.MinInt, math.MaxInt, true, -1e300, uint64(1), uint64(2), uint64(3), uint64(4))
	f.Add("Hydra", "M2", true, 1, 0, false, 0.36, uint64(15_000), uint64(1_500), uint64(0), uint64(7))
	f.Add("PRAC", "H7", false, 2, 1, false, math.NaN(), uint64(1), uint64(1), uint64(1), uint64(1))
	f.Add("Graphene", "H5", false, 2, 1, true, math.Inf(-1), uint64(1), uint64(1), uint64(1), uint64(1))
	spec, err := trace.SpecByName("429.mcf")
	if err != nil {
		f.Fatal(err)
	}
	attack := trace.AttackSpec{Name: "attacker", Sides: 2, VictimEvery: 64}.WithDefaults()
	cores := []resolvedCore{{Spec: &spec}, {Attack: &attack}}
	coresJSON, err := json.Marshal(cores)
	if err != nil {
		f.Fatal(err)
	}
	m := resolvedMember{name: "m", cores: cores, coresJSON: coresJSON}
	f.Fuzz(func(t *testing.T, mitigation, module string, pac bool, nrh, factorIdx int, periodic bool,
		periodicFactor float64, insts, warmup, maxCycles, seed uint64) {
		rc := &resolvedCell{
			MemCfg:         sim.SmallMemConfig(),
			Mitigation:     mitigation,
			NRH:            nrh,
			Periodic:       periodic,
			PeriodicFactor: periodicFactor,
			Insts:          insts,
			Warmup:         warmup,
			MaxCycles:      maxCycles,
			Seed:           seed,
		}
		if pac {
			rc.PacKey = &pacramKey{Module: module, FactorIdx: factorIdx}
		}
		var e keyEncoder
		want, wantErr := marshalKey(rc, cores)
		// Twice: the second call reads Mem from the memo.
		for range 2 {
			got, err := e.encode(rc, m)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("encoder error %v, json.Marshal error %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("encoder wrote\n%s\njson.Marshal wrote\n%s", got, want)
			}
		}
	})
}

// BenchmarkSpecCompile measures Spec.Compile on the paper's fig17
// (549 cells over one memory config, the compile a warm daemon serves
// most) and on hammer-victim (a small attacker sweep).
func BenchmarkSpecCompile(b *testing.B) {
	for _, name := range []string{"fig17", "hammer-victim"} {
		b.Run(name, func(b *testing.B) {
			s, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.Compile(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
