package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pacram/internal/trace"
)

func profileOpts(t *testing.T) Options {
	t.Helper()
	spec, err := trace.SpecByName("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(spec)
	opt.MemCfg = SmallMemConfig()
	opt.Instructions = 8_000
	opt.Warmup = 800
	opt.Mitigation = "PARA"
	opt.NRH = 64
	return opt
}

// TestProfilePassive is the profiling half of the passivity contract:
// the same run with and without Options.Profile produces bit-identical
// Results apart from the Profile field itself, and the default JSON
// encoding (the bytes the result store caches) is unchanged.
func TestProfilePassive(t *testing.T) {
	for _, engine := range []string{EngineEventHorizon, EnginePerCycle} {
		t.Run(engine, func(t *testing.T) {
			opt := profileOpts(t)
			opt.Engine = engine
			plain, err := Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Profile != nil {
				t.Fatal("Profile set without Options.Profile")
			}

			opt = profileOpts(t)
			opt.Engine = engine
			opt.Profile = true
			profiled, err := Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if profiled.Profile == nil {
				t.Fatal("Options.Profile set but Result.Profile is nil")
			}
			stripped := profiled
			stripped.Profile = nil
			if !reflect.DeepEqual(plain, stripped) {
				t.Errorf("profiling changed the result:\nplain:    %+v\nprofiled: %+v", plain, stripped)
			}

			// The cached-bytes contract: a plain result's JSON has no
			// Profile key at all.
			data, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(data), "Profile") {
				t.Fatalf("unprofiled result JSON mentions Profile: %s", data)
			}
		})
	}
}

// TestProfileAttribution checks the collected numbers are internally
// consistent: steps + leapt cycles account for the whole run, the
// event-horizon engine actually leaps while the per-cycle engine never
// does, a single-channel run counts no channel windows, and the
// per-layer command counts are populated.
func TestProfileAttribution(t *testing.T) {
	opt := profileOpts(t)
	opt.Profile = true
	ev, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	p := ev.Profile
	if p.Engine != EngineEventHorizon {
		t.Fatalf("engine = %q, want %q", p.Engine, EngineEventHorizon)
	}
	if p.Steps+p.LeapCycles != p.SimCycles {
		t.Fatalf("steps %d + leapCycles %d != simCycles %d", p.Steps, p.LeapCycles, p.SimCycles)
	}
	if p.Leaps == 0 || p.LeapCycles == 0 {
		t.Fatal("event-horizon run recorded no leaps")
	}
	if p.LeapHist.Count != int64(p.Leaps) {
		t.Fatalf("leap histogram count %d != leaps %d", p.LeapHist.Count, p.Leaps)
	}
	if p.Windows != 0 || p.WindowCycles != 0 || p.WindowNanos != 0 {
		t.Fatalf("single-channel run counted channel windows: %d windows, %d cycles, %d ns",
			p.Windows, p.WindowCycles, p.WindowNanos)
	}
	if int64(p.LeapHist.Sum) != int64(p.LeapCycles) {
		t.Fatalf("leap histogram sum %v != leapCycles %d", p.LeapHist.Sum, p.LeapCycles)
	}
	if p.CoreTicks == 0 {
		t.Fatal("no core ticks recorded")
	}
	if p.CoreTicks+p.CoreStallSkips != p.Steps*uint64(len(ev.IPC)) {
		t.Fatalf("coreTicks %d + stallSkips %d != steps %d * cores %d",
			p.CoreTicks, p.CoreStallSkips, p.Steps, len(ev.IPC))
	}
	if p.Refreshes == 0 || p.PreventiveRefreshes == 0 {
		t.Fatalf("refresh attribution empty: %+v", p)
	}
	if p.WallNanos <= 0 || p.CyclesPerSecond <= 0 {
		t.Fatalf("wall attribution empty: wall=%d cps=%v", p.WallNanos, p.CyclesPerSecond)
	}

	opt = profileOpts(t)
	opt.Profile = true
	opt.Engine = EnginePerCycle
	pc, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	q := pc.Profile
	if q.Leaps != 0 || q.LeapCycles != 0 || q.CoreStallSkips != 0 {
		t.Fatalf("per-cycle engine leapt or skipped: %+v", q)
	}
	if q.Steps != q.SimCycles {
		t.Fatalf("per-cycle steps %d != simCycles %d", q.Steps, q.SimCycles)
	}
	// Both engines simulate the same extent; the event-horizon engine
	// just executes fewer steps.
	if q.SimCycles != p.SimCycles {
		t.Fatalf("engines simulated different extents: %d vs %d", q.SimCycles, p.SimCycles)
	}
	if p.Steps >= q.Steps {
		t.Fatalf("event-horizon executed %d steps, per-cycle %d — no savings", p.Steps, q.Steps)
	}
}

// TestEngineParityWithProfile reruns a parity case with Options.Profile
// enabled: Results must stay byte-identical once the (legitimately
// engine-specific) Profile field is stripped.
func TestEngineParityWithProfile(t *testing.T) {
	build := func() Options {
		opt := profileOpts(t)
		opt.Profile = true
		return opt
	}
	ref := build()
	ref.Engine = EnginePerCycle
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	ev := build()
	ev.Engine = EngineEventHorizon
	got, err := Run(ev)
	if err != nil {
		t.Fatal(err)
	}
	want.Profile, got.Profile = nil, nil
	if !reflect.DeepEqual(want, got) {
		t.Errorf("engines diverged under profiling:\nper-cycle:     %+v\nevent-horizon: %+v", want, got)
	}
}

// TestProfileQuietLeaps checks the quiet-leap counters: a compute-heavy
// mix leaps across quiet runs, every quiet leap is also counted as a
// leap (so the Steps + LeapCycles == SimCycles identity covers it), and
// the per-cycle reference never quiet-leaps.
func TestProfileQuietLeaps(t *testing.T) {
	build := parityOpts(t, "453.povray", "453.povray", "453.povray", "429.mcf")
	for _, engine := range []string{EngineEventHorizon, EnginePerCycle} {
		opt := build()
		opt.Engine = engine
		opt.Profile = true
		res, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		if engine == EnginePerCycle {
			if p.QuietLeaps != 0 || p.QuietCycles != 0 {
				t.Errorf("per-cycle engine quiet-leapt: %d leaps over %d cycles", p.QuietLeaps, p.QuietCycles)
			}
			continue
		}
		if p.QuietLeaps == 0 || p.QuietCycles < 2*p.QuietLeaps {
			t.Fatalf("no quiet leaps of two or more cycles: %d leaps over %d cycles", p.QuietLeaps, p.QuietCycles)
		}
		if p.QuietLeaps > p.Leaps || p.QuietCycles > p.LeapCycles {
			t.Errorf("quiet leaps %d/%d cycles exceed all leaps %d/%d", p.QuietLeaps, p.QuietCycles, p.Leaps, p.LeapCycles)
		}
		if p.Steps+p.LeapCycles != p.SimCycles {
			t.Errorf("steps %d + leapCycles %d != simCycles %d", p.Steps, p.LeapCycles, p.SimCycles)
		}
	}
}
