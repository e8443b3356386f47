package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyConfig is the self-test scale: short cells, a two-entry daemon
// catalog, one second of measurement.
func tinyConfig(t *testing.T, workload string, seed uint64, trace bool) config {
	return config{
		workload:  workload,
		seed:      seed,
		seconds:   time.Second,
		trace:     trace,
		workdir:   t.TempDir(),
		workers:   2,
		cal:       newCalibrator(2),
		setupReps: 3,
		insts:     2000,
		catalog:   []string{"multi-tenant", "refresh-stress"},
	}
}

func runTiny(t *testing.T, cfg config) resultLine {
	t.Helper()
	if err := os.MkdirAll(cfg.workdir+"/tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	line, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", cfg.workload, cfg.seed, err)
	}
	return line
}

// TestMetricsMatchBenchmarkFile runs every workload at tiny scale with
// two seeds, untraced and traced, and checks that each prints exactly
// the metrics BENCHMARK.json names, with their units, that every output
// check passes, and that the exact simulated counts repeat for a seed.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 3", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		if w.Why == "" {
			t.Errorf("workload %s has no reason recorded", w.Name)
		}
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}

	for _, w := range bf.Workloads {
		for _, seed := range []uint64{3, 4} {
			var exact []map[string]float64
			for _, trace := range []bool{false, true, true} {
				line := runTiny(t, tinyConfig(t, w.Name, seed, trace))
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("%s seed %d trace %v: correct=%v attempted=%d failed=%d",
						w.Name, seed, trace, line.Correct, line.Attempted, line.Failed)
				}
				if len(line.Metrics) != len(want[trace]) {
					t.Errorf("%s trace %v: %d metrics, BENCHMARK.json names %d",
						w.Name, trace, len(line.Metrics), len(want[trace]))
				}
				for name, unit := range want[trace] {
					got, ok := line.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("%s trace %v: metric %s = %+v, want unit %s", w.Name, trace, name, got, unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", w.Name, name, got.Value)
					}
				}
				if trace {
					counts := make(map[string]float64)
					for _, n := range exactCounts {
						counts[n] = line.Metrics[n].Value
					}
					exact = append(exact, counts)
					windows := line.Metrics["sim.windows"].Value
					switch w.Name {
					case "paper-sweep":
						if windows != 0 || line.Metrics["sim.window_frac"].Value != 0 {
							t.Errorf("paper-sweep: single-channel cells ran %v channel windows", windows)
						}
					case "wide-hammer":
						if windows == 0 || line.Metrics["sim.window_frac"].Value == 0 {
							t.Errorf("wide-hammer: multi-channel cells ran no channel windows")
						}
					}
				}
			}
			for n, v := range exact[0] {
				if exact[1][n] != v {
					t.Errorf("%s seed %d: exact count %s = %v then %v", w.Name, seed, n, v, exact[1][n])
				}
			}
		}
	}
}

// TestCorruptReferenceFails proves the output checks bite: with one
// reference table altered, the run reports failures and is not correct.
func TestCorruptReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	corrupt := func(name string, table []byte) []byte {
		out := append([]byte(nil), table...)
		out[len(out)/2] ^= 1
		return out
	}
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"paper-sweep", false},
		{"wide-hammer", true},
		{"daemon-warm", false},
	} {
		cfg := tinyConfig(t, tc.workload, 5, tc.trace)
		cfg.corrupt = corrupt
		line := runTiny(t, cfg)
		if line.Correct || line.Failed == 0 {
			t.Errorf("%s trace %v with a corrupted reference: correct=%v failed=%d, want a failure",
				tc.workload, tc.trace, line.Correct, line.Failed)
		}
	}
}

// TestCalibrationScale checks that a calibrated run scales times by the
// reference over its median calibration, and an uncalibrated one not.
func TestCalibrationScale(t *testing.T) {
	var none *calibrator
	none.calibrate()
	if none.wallScale() != 1 || none.cpuScale() != 1 {
		t.Errorf("nil calibrator scales by %v, %v", none.wallScale(), none.cpuScale())
	}
	c := newCalibrator(2)
	if c.wallScale() != 1 {
		t.Errorf("calibrator without calibrations scales by %v", c.wallScale())
	}
	for range 3 {
		c.calibrate()
	}
	if len(c.walls) != 3 || len(c.cpus) != 3 {
		t.Fatalf("logged %d walls, %d cpus after 3 calibrations", len(c.walls), len(c.cpus))
	}
	if got, want := c.wallScale(), calRefWall.Seconds()/quantile(c.walls, 0.5); got != want || got <= 0 {
		t.Errorf("wallScale = %v, want %v", got, want)
	}
	if got, want := c.cpuScale(), calRefCPU.Seconds()/quantile(c.cpus, 0.5); got != want || got <= 0 {
		t.Errorf("cpuScale = %v, want %v", got, want)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
	}{{5, "max"}, {10, "max"}, {100, "p90.0"}, {500, "p98.0"}, {1000, "p99"}, {5000, "p99"}} {
		q, label := tailQuantile(tc.n)
		if label != tc.label {
			t.Errorf("tailQuantile(%d) = %v %s, want %s", tc.n, q, label, tc.label)
		}
		if beyond := float64(tc.n) * (1 - q); tc.n > 10 && beyond < 10-1e-9 {
			t.Errorf("tailQuantile(%d): only %.1f samples beyond", tc.n, beyond)
		}
	}
}
