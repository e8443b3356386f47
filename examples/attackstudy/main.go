// Attack study: explores RowHammer access patterns on the modeled
// chips — double-sided vs single-sided vs Half-Double, the effect of
// RowPress-style long open times, and how the paper's reduced
// preventive-refresh latency changes each attack's effectiveness.
//
// Every probe is one job in an internal/runner matrix: each builds its
// own platform from the module seed, so the fan-out changes nothing
// about the measured numbers (run with -parallel 1 to check).
//
// Run with: go run ./examples/attackstudy [-parallel N]
package main

import (
	"flag"
	"fmt"
	"log"

	"pacram/internal/bender"
	"pacram/internal/characterize"
	"pacram/internal/chips"
	"pacram/internal/runner"
)

const (
	seed   = 0x9ac24a
	budget = 60000 // activation budget shared by the attack patterns
)

var moduleIDs = []string{"H7", "S6"}

// attacks defines the studied access patterns in one place: the name
// doubles as the job key and the report label, and hammer builds the
// pattern's aggressor sequence (the victim write and read-back are
// common to all).
var attacks = []struct {
	name   string
	hammer func(pl *bender.Platform, nb bender.Neighbors) []bender.Op
}{
	{"double-sided (30K+30K)", func(pl *bender.Platform, nb bender.Neighbors) []bender.Op {
		return []bender.Op{bender.DoubleSidedHammer(nb.Near[0], nb.Near[1], budget/2, pl.Timing().TRAS)}
	}},
	{"single-sided (60K)", func(pl *bender.Platform, nb bender.Neighbors) []bender.Op {
		return []bender.Op{bender.Loop{Count: budget, Body: []bender.Op{bender.Act{Row: nb.Near[0], HoldNs: pl.Timing().TRAS}}}}
	}},
	{"RowPress (15K at 4x tRAS)", func(pl *bender.Platform, nb bender.Neighbors) []bender.Op {
		return []bender.Op{bender.DoubleSidedHammer(nb.Near[0], nb.Near[1], budget/8, 4*pl.Timing().TRAS)}
	}},
	// Half-Double trades a much larger far-row budget (which a naive
	// mitigation would not attribute to the victim) for a small near
	// budget; it needs far more total activations to flip.
	{"Half-Double (500K far + 10K near)", func(pl *bender.Platform, nb bender.Neighbors) []bender.Op {
		return bender.HalfDoubleHammer(nb.Far[0], nb.Near[0], 500000, 10000, pl.Timing().TRAS)
	}},
}

// attackProbe is one attack pattern's outcome on one module.
type attackProbe struct {
	Name  string
	Flips int
}

// latencyProbe is the victim's measured resilience after one
// preventive refresh at reduced tRAS.
type latencyProbe struct {
	Factor float64
	NRH    int
	BER    float64
}

func main() {
	parallel := flag.Int("parallel", 0, "worker pool size (0 = all CPUs); results are identical at any value")
	flag.Parse()

	attackJobs := runner.NewMatrix[attackProbe]()
	latencies := runner.NewMatrix[latencyProbe]()
	factors := []float64{1.0, 0.45, 0.27}

	for _, id := range moduleIDs {
		for _, atk := range attacks {
			attackJobs.Add(fmt.Sprintf("attack/%s/%s", id, atk.name), func(runner.Ctx) (attackProbe, error) {
				_, pl, victim, nb, err := setup(id)
				if err != nil {
					return attackProbe{}, err
				}
				phys := pl.Scramble().Physical(victim)
				prog := append([]bender.Op{bender.WriteRow{Row: victim, Pattern: pl.Chip().WorstPattern(phys)}},
					append(atk.hammer(pl, nb), bender.ReadRow{Row: victim})...)
				res, err := pl.Run(prog)
				if err != nil {
					return attackProbe{}, err
				}
				return attackProbe{Name: atk.name, Flips: res[0]}, nil
			})
		}
		for _, f := range factors {
			latencies.Add(fmt.Sprintf("latency/%s/%.2f", id, f), func(runner.Ctx) (latencyProbe, error) {
				_, pl, victim, _, err := setup(id)
				if err != nil {
					return latencyProbe{}, err
				}
				m, err := characterize.MeasureRow(pl, victim, f*pl.Timing().TRAS, 1, characterize.DefaultConfig())
				if err != nil {
					return latencyProbe{}, err
				}
				return latencyProbe{Factor: f, NRH: m.NRH, BER: m.BER}, nil
			})
		}
	}

	opt := runner.Options{Workers: *parallel, Seed: seed, Label: "attackstudy"}
	attackRes, err := runner.Run(opt, attackJobs.Jobs())
	if err != nil {
		log.Fatal(err)
	}
	latencyRes, err := runner.Run(opt, latencies.Jobs())
	if err != nil {
		log.Fatal(err)
	}

	for _, id := range moduleIDs {
		module, pl, victim, nb, err := setup(id)
		if err != nil {
			log.Fatal(err)
		}
		phys := pl.Scramble().Physical(victim)

		fmt.Printf("=== Module %s (%s) ===\n", id, module.Info.Mfr.FullName())
		fmt.Printf("victim logical row %d -> physical %d, WCDP %v\n",
			victim, phys, pl.Chip().WorstPattern(phys))
		fmt.Printf("neighbours: near %v, far %v (reverse-engineered)\n", nb.Near, nb.Far)
		fmt.Printf("attack patterns with a %d-activation budget:\n", budget)
		for _, atk := range attacks {
			i, _ := attackJobs.Index(fmt.Sprintf("attack/%s/%s", id, atk.name))
			p := attackRes[i]
			fmt.Printf("  %-28s %6d bitflips\n", p.Name, p.Flips)
		}
		fmt.Println("double-sided NRH after one preventive refresh at reduced tRAS:")
		for _, f := range factors {
			i, _ := latencies.Index(fmt.Sprintf("latency/%s/%.2f", id, f))
			p := latencyRes[i]
			fmt.Printf("  %.2f tRAS: NRH %6d  BER %.4f\n", p.Factor, p.NRH, p.BER)
		}
		fmt.Println()
	}
}

// setup builds a fresh platform for the module and picks the study's
// victim row and its neighbours (deterministic per module, so every
// job recomputes the same victim without sharing platform state).
func setup(id string) (*chips.ModuleData, *bender.Platform, int, bender.Neighbors, error) {
	module, err := chips.ByID(id)
	if err != nil {
		return nil, nil, 0, bender.Neighbors{}, err
	}
	opt := chips.DefaultDeviceOptions()
	pl, err := bender.New(module.NewChip(opt), opt.Seed)
	if err != nil {
		return nil, nil, 0, bender.Neighbors{}, err
	}
	pl.SetTemperature(80)
	rows := characterize.SelectRows(pl, 8)
	victim := rows[len(rows)/2]
	nb, err := pl.FindNeighbors(victim)
	if err != nil {
		return nil, nil, 0, bender.Neighbors{}, err
	}
	return module, pl, victim, nb, nil
}
