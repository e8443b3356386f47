package exp

import (
	"fmt"

	pacram "pacram/internal/core"
	"pacram/internal/mitigation"
	"pacram/internal/sim"
	"pacram/internal/trace"
)

// Takeaways re-verifies the paper's eight takeaways end-to-end and
// reports the measured evidence for each. It is the narrative
// companion to cmd/artifact's four formal claims.
func Takeaways(co CharOptions, so SysOptions) (*Table, error) {
	t := &Table{
		ID:      "takeaways",
		Title:   "The paper's eight takeaways, re-verified",
		Columns: []string{"takeaway", "paper statement", "measured evidence", "holds"},
	}

	// The takeaways name their modules, whatever co.Modules says.
	mods, err := CharOptions{}.modules("H5", "M2", "S6", "H7")
	if err != nil {
		return nil, err
	}
	h5, m2, s6, h7 := mods[0], mods[1], mods[2], mods[3]
	t1 := charPoint{h5, 0.36, 1, 80}
	t2 := charPoint{m2, 0.27, 1, 80}
	t4cold, t4hot := charPoint{s6, 0.45, 1, 50}, charPoint{s6, 0.45, 1, 80}
	t5 := charPoint{h7, 0.36, 15000, 80}
	res, err := co.measurePoints("takeaways", []charPoint{t1, t2, t4cold, t4hot, t5})
	if err != nil {
		return nil, err
	}

	// T1: charge restoration latency can be reduced to a safe minimum
	// without affecting NRH.
	_, r, _, err := lowestNRH(res, t1)
	if err != nil {
		return nil, err
	}
	t.AddRow("T1", "tRAS reducible to a safe minimum without affecting NRH",
		fmt.Sprintf("H5 lowest NRH at 0.36 tRAS = %.2fx nominal", r), verdict(r >= 0.95))

	// T2: ...without significantly affecting the lowest observed NRH.
	_, r, _, err = lowestNRH(res, t2)
	if err != nil {
		return nil, err
	}
	t.AddRow("T2", "lowest observed NRH robust at mfr-specific safe latencies",
		fmt.Sprintf("M2 lowest NRH at 0.27 tRAS = %.2fx nominal", r), verdict(r >= 0.97))

	// T3: BER does not grow significantly at the safe minimum (mean
	// per-row BER normalized to nominal).
	_, bers, err := normalizedPerRow(res, t1)
	if err != nil {
		return nil, err
	}
	if len(bers) == 0 {
		return nil, fmt.Errorf("exp: no BER samples for H5")
	}
	berRatio := 0.0
	for _, b := range bers {
		berRatio += b
	}
	berRatio /= float64(len(bers))
	t.AddRow("T3", "BER not significantly increased at the safe minimum",
		fmt.Sprintf("H5 mean BER at 0.36 tRAS = %.2fx nominal", berRatio), verdict(berRatio <= 1.05))

	// T4: temperature does not change the effect.
	_, cold, _, err := lowestNRH(res, t4cold)
	if err != nil {
		return nil, err
	}
	_, hot, _, err := lowestNRH(res, t4hot)
	if err != nil {
		return nil, err
	}
	diff := cold - hot
	if diff < 0 {
		diff = -diff
	}
	t.AddRow("T4", "temperature has no significant impact on the latency effect",
		fmt.Sprintf("S6@0.45 normalized NRH differs by %.3f between 50C and 80C", diff), verdict(diff <= 0.05))

	// T5: reduced latency is safe for many consecutive refreshes.
	_, r, _, err = lowestNRH(res, t5)
	if err != nil {
		return nil, err
	}
	t.AddRow("T5", "reduced latency safe for many consecutive preventive refreshes",
		fmt.Sprintf("H7 lowest NRH after 15K restores at 0.36 tRAS = %.2fx nominal", r), verdict(r >= 0.95))

	// T6: no data-retention failures at the safe minimum (one restore,
	// 64 ms: Fig. 14's cell).
	retention := retPoint{s6, 0.45, 1, 64}
	ret, err := runCells(co, "takeaways", []retPoint{retention})
	if err != nil {
		return nil, err
	}
	rr, err := ret.at(retention)
	if err != nil {
		return nil, err
	}
	frac := rr.FailFraction()
	t.AddRow("T6", "no retention failures at the safe minimum within tREFW",
		fmt.Sprintf("S6 retention-failure fraction at 0.45 tRAS, 64ms = %.3f", frac), verdict(frac == 0))

	// T7/T8: PaCRAM improves performance and energy.
	spec, err := trace.SpecByName("429.mcf")
	if err != nil {
		return nil, err
	}
	run := func(cfg *pacram.Config) (sim.Result, error) {
		o := sim.DefaultOptions(spec)
		o.MemCfg = so.MemCfg()
		o.Instructions = so.Instructions
		o.Warmup = so.Warmup
		o.Mitigation = mitigation.NameRFM
		o.NRH = 64
		o.PaCRAM = cfg
		o.Seed = so.Seed
		return sim.Run(o)
	}
	cfg, err := pacram.Derive(h5, 4, 64, sim.SmallMemConfig().Timing)
	if err != nil {
		return nil, err
	}
	noPac, err := run(nil)
	if err != nil {
		return nil, err
	}
	withPac, err := run(&cfg)
	if err != nil {
		return nil, err
	}
	dPerf := 100 * (withPac.IPC[0]/noPac.IPC[0] - 1)
	t.AddRow("T7", "PaCRAM significantly improves system performance",
		fmt.Sprintf("RFM@64 + PaCRAM-H: %+.2f%% IPC", dPerf), verdict(dPerf > 0))
	dEnergy := 100 * (withPac.Energy.Total()/noPac.Energy.Total() - 1)
	t.AddRow("T8", "PaCRAM significantly reduces DRAM energy",
		fmt.Sprintf("RFM@64 + PaCRAM-H: %+.2f%% DRAM energy", dEnergy), verdict(dEnergy < 0))
	return t, nil
}

func verdict(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
