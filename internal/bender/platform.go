package bender

import (
	"fmt"

	"pacram/internal/ddr"
	"pacram/internal/device"
)

// Platform is the assembled test rig: a device under test, the DDR4
// command timings the host obeys, the temperature controller, and the
// module's internal row scramble. All row addresses in programs are
// logical; the platform translates to physical rows on the device.
type Platform struct {
	chip   *device.Chip
	timing ddr.Timing
	temp   *TempController
	scr    *Scramble
}

// New assembles a platform around a device chip using DDR4 command
// timings (the paper characterizes DDR4 modules).
func New(chip *device.Chip, seed uint64) (*Platform, error) {
	scr, err := NewScramble(chip.Rows(), seed)
	if err != nil {
		return nil, err
	}
	return &Platform{
		chip:   chip,
		timing: ddr.DDR4(),
		temp:   NewTempController(seed),
		scr:    scr,
	}, nil
}

// Chip exposes the device under test (read-only use intended).
func (p *Platform) Chip() *device.Chip { return p.chip }

// Timing returns the platform's command timing set.
func (p *Platform) Timing() ddr.Timing { return p.timing }

// Temp returns the temperature controller.
func (p *Platform) Temp() *TempController { return p.temp }

// Scramble exposes the module's internal row mapping (tests use it).
func (p *Platform) Scramble() *Scramble { return p.scr }

// SetTemperature commands the heater rig and applies the settled
// temperature to the device.
func (p *Platform) SetTemperature(target float64) {
	p.chip.SetTemperature(p.temp.Set(target))
}

// Now returns the platform wall clock in ns.
func (p *Platform) Now() float64 { return p.chip.Now() }

// Run validates and executes a test program, returning the bitflip
// count of each ReadRow in program order.
func (p *Platform) Run(prog []Op) ([]int, error) {
	if err := Validate(prog); err != nil {
		return nil, err
	}
	var results []int
	p.exec(prog, 1, &results)
	return results, nil
}

// exec executes ops, with the surrounding loop multiplier applied to
// pure-ACT bodies for closed-form collapse.
func (p *Platform) exec(prog []Op, mult int, results *[]int) {
	for _, op := range prog {
		switch o := op.(type) {
		case Act:
			p.act(o, mult)
		case WriteRow:
			for i := 0; i < mult; i++ {
				p.chip.InitRow(p.scr.Physical(o.Row), o.Pattern)
			}
		case ReadRow:
			for i := 0; i < mult; i++ {
				*results = append(*results, p.chip.Bitflips(p.scr.Physical(o.Row)))
			}
		case Wait:
			p.chip.Advance(float64(mult) * o.Ns)
		case WaitUntil:
			for i := 0; i < mult; i++ {
				deadline := o.MarkNs + o.Ns
				if now := p.chip.Now(); now < deadline {
					p.chip.Advance(deadline - now)
				}
			}
		case Loop:
			if o.Count == 0 {
				continue
			}
			if actsOnly(o.Body) {
				// Closed-form collapse: per-row activation counts.
				p.execActs(o.Body, mult*o.Count)
				continue
			}
			for i := 0; i < mult; i++ {
				for j := 0; j < o.Count; j++ {
					p.exec(o.Body, 1, results)
				}
			}
		}
	}
}

func actsOnly(body []Op) bool {
	for _, op := range body {
		if _, ok := op.(Act); !ok {
			return false
		}
	}
	return true
}

// act executes one ACT (+implicit PRE) count times.
func (p *Platform) act(a Act, count int) {
	cycle := a.HoldNs + p.timing.TRP
	p.chip.Activate(p.scr.Physical(a.Row), a.HoldNs, count, cycle)
}

// execActs collapses a pure-ACT body repeated count times into one
// Activate call per distinct op. Interleaving order does not affect
// the closed-form device model.
func (p *Platform) execActs(body []Op, count int) {
	for _, op := range body {
		p.act(op.(Act), count)
	}
}

// TemperatureStabilityCheck reproduces the paper's infrastructure
// validation (footnote 2): run RowHammer tests round-robin for the
// given duration while sampling the thermocouple at the given period,
// and report the maximum deviation from the set point. The paper
// observed < 0.5C over 24 hours at 5-second sampling.
func (p *Platform) TemperatureStabilityCheck(hours, samplePeriodSec float64) (maxDeviation float64) {
	target := p.temp.Target()
	samples := int(hours * 3600 / samplePeriodSec)
	row := 0
	for i := 0; i < samples; i++ {
		// Dummy round-robin hammering keeps the die active between
		// samples, as in the validation experiment.
		p.chip.Activate(row%p.chip.Rows(), p.timing.TRAS, 1, p.timing.TRC())
		row++
		p.chip.Advance(samplePeriodSec * 1e9)
		if d := p.temp.Sample() - target; d > maxDeviation {
			maxDeviation = d
		} else if -d > maxDeviation {
			maxDeviation = -d
		}
	}
	return maxDeviation
}

// Neighbors returns the logical rows that are physically adjacent
// (distance 1) and two rows away (distance 2) from the given logical
// victim row, per the module's reverse-engineered address mapping.
// An error is returned if the victim's physical location is at the
// edge of the bank (no sandwiched aggressors).
type Neighbors struct {
	Near [2]int // logical rows at physical distance 1 (below, above)
	Far  [2]int // logical rows at physical distance 2 (below, above)
}

// FindNeighbors reverse-engineers the physical neighbourhood of a
// logical victim row. The procedure prior work uses (hammer candidate
// rows, observe which disturb the victim) recovers exactly the inverse
// of the internal mapping; the platform exposes that inverse, and
// VerifyNeighbors provides the hammer-based confirmation used in tests.
func (p *Platform) FindNeighbors(logicalVictim int) (Neighbors, error) {
	phys := p.scr.Physical(logicalVictim)
	if phys < 2 || phys >= p.chip.Rows()-2 {
		return Neighbors{}, fmt.Errorf("bender: victim (physical row %d) too close to bank edge", phys)
	}
	return Neighbors{
		Near: [2]int{p.scr.Logical(phys - 1), p.scr.Logical(phys + 1)},
		Far:  [2]int{p.scr.Logical(phys - 2), p.scr.Logical(phys + 2)},
	}, nil
}

// VerifyNeighbors confirms by experiment that hammering the claimed
// near neighbours disturbs the victim more than hammering two random
// non-adjacent rows: the reverse-engineering sanity check of §4.3. It
// returns true when the claimed neighbours induce bitflips and the
// control rows do not.
func (p *Platform) VerifyNeighbors(victim int, nb Neighbors, hc int, dp device.DataPattern) (bool, error) {
	tras := p.timing.TRAS
	mark := p.Now()
	probe := func(a1, a2 int) (int, error) {
		prog := []Op{
			WriteRow{Row: victim, Pattern: dp},
			DoubleSidedHammer(a1, a2, hc, tras),
			ReadRow{Row: victim},
		}
		res, err := p.Run(prog)
		if err != nil {
			return 0, err
		}
		return res[0], nil
	}
	nearFlips, err := probe(nb.Near[0], nb.Near[1])
	if err != nil {
		return false, err
	}
	// Control: two rows far away from the victim physically.
	physV := p.scr.Physical(victim)
	ctrl1 := p.scr.Logical((physV + p.chip.Rows()/2) % p.chip.Rows())
	ctrl2 := p.scr.Logical((physV + p.chip.Rows()/2 + 7) % p.chip.Rows())
	ctrlFlips, err := probe(ctrl1, ctrl2)
	if err != nil {
		return false, err
	}
	_ = mark
	return nearFlips > 0 && ctrlFlips == 0, nil
}
