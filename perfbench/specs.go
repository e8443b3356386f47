package main

import (
	"encoding/json"
	"fmt"

	"pacram/internal/scenario"
)

// specSeed maps the benchmark seed to a spec's sim.seed; 0 would select
// the engine's default seed, so it is never produced.
func specSeed(seed uint64) uint64 { return seed*0x9E3779B97F4A7C15 | 1 }

// paperSweepSpec is the embedded fig17 catalog spec with its sim.seed
// taken from the benchmark seed. insts > 0 shrinks the per-cell
// instruction budget (self-test scale only).
func paperSweepSpec(seed, insts uint64) ([]byte, error) {
	s, err := scenario.ByName("fig17")
	if err != nil {
		return nil, err
	}
	s.Name = "paper-sweep"
	s.Sim.Seed = specSeed(seed)
	if insts > 0 {
		s.Sim.Instructions, s.Sim.Warmup = insts, insts/10
	}
	return json.Marshal(s)
}

// wideHammerSpec is a 16-sided attacker (victimEvery 2, stride left at
// the per-cell row stride) beside three victims, swept over wide memory
// systems, mechanisms, low thresholds and PaCRAM on/off. The spec is
// written as JSON so the inline-spec submission path of the daemon sees
// the same document a user would send.
func wideHammerSpec(seed, insts uint64) ([]byte, error) {
	if insts == 0 {
		insts = 60000
	}
	doc := fmt.Sprintf(`{
  "name": "wide-hammer",
  "description": "16-sided attacker beside three victims on 4- and 8-channel systems at low thresholds.",
  "sim": { "instructions": %d, "warmup": %d, "seed": %d },
  "baseline": { "mitigation": "None" },
  "workloads": [
    {
      "name": "attacked",
      "members": [
        {
          "name": "hammer16+victims",
          "cores": [
            { "attacker": { "sides": 16, "victimEvery": 2, "footprintMB": 256 } },
            { "workload": "ycsb-a" },
            { "workload": "429.mcf" },
            { "workload": "470.lbm" }
          ]
        }
      ]
    }
  ],
  "sweep": {
    "axes": [
      { "param": "memory.channels", "values": [4, 8] },
      { "param": "mitigation", "values": ["Graphene", "PRAC", "Hydra"] },
      { "param": "nrh", "values": [8, 32] },
      { "param": "pacram", "labels": ["NoPaCRAM", "PaCRAM-S"],
        "values": [null, { "module": "S6", "factor": 0.45 }] }
    ]
  },
  "columns": [
    { "name": "channels", "axis": "memory.channels" },
    { "name": "mechanism", "axis": "mitigation" },
    { "name": "NRH", "axis": "nrh" },
    { "name": "config", "axis": "pacram" },
    { "name": "normWS", "group": "attacked", "metric": "normWS" },
    { "name": "vrrs", "group": "attacked", "metric": "vrrs" },
    { "name": "prevRefBusyPct", "group": "attacked", "metric": "prevRefBusyPct" }
  ]
}`, insts, insts/10, specSeed(seed))
	return []byte(doc), nil
}

// compileSpec parses and compiles one spec document.
func compileSpec(doc []byte) (*scenario.Plan, error) {
	s, err := scenario.Parse(doc)
	if err != nil {
		return nil, err
	}
	return s.Compile()
}
