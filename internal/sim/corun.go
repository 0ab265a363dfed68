package sim

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/workload"
)

// CoRunResult reports the Section VI-C quality-of-service experiment: one
// core runs the worst-case DoS pattern while the remaining cores run a
// benign workload; the victim cores' IPC under the mitigation, relative to
// their IPC when co-running with the same attacker on an *unprotected*
// system, shows how much extra interference the mitigation's migrations
// add on top of the attack's own bandwidth use.
type CoRunResult struct {
	Scheme Scheme
	// VictimIPC is the benign cores' aggregate IPC with the attacker
	// present, under the scheme.
	VictimIPC float64
	// BaselineVictimIPC is the same with no mitigation.
	BaselineVictimIPC float64
	// SoloVictimIPC is the benign cores' IPC with no attacker and no
	// mitigation (the unloaded reference).
	SoloVictimIPC float64
	// AttackSlowdown is the mitigation-vs-baseline degradation of the
	// victims: BaselineVictimIPC / VictimIPC.
	AttackSlowdown float64
	// Mitigations performed during the co-run.
	Mitigations int64
	// Violated reports the security outcome for the protected run.
	Violated bool
}

// CoRun executes the experiment: `spec` on cores 1..N-1, the rotating DoS
// pattern on core 0, for the given window.
func CoRun(scheme Scheme, trh int64, spec workload.Spec, window dram.PS, seed uint64) (CoRunResult, error) {
	if window <= 0 {
		return CoRunResult{}, fmt.Errorf("sim: co-run window must be positive")
	}
	region := VisibleRegion(Config{})
	params := workload.Params{Cores: cores}

	victimIPC := func(s Scheme, withAttacker bool) (float64, int64, bool, error) {
		cfg := Config{TRH: trh, Scheme: s, Seed: seed, Monitor: true}
		streams := make([]cpu.Stream, cores)
		reqs := requestBudget(window, 1, spec.MPKI)
		if withAttacker {
			streams[0] = attack.NewRotatingDoS(region.Geom, region.VisibleRowsPerBank,
				max64(trh/2, 1), 1<<40)
		} else {
			// An idle-ish core: minimal traffic so the system shape stays
			// comparable.
			gen := workload.NewGenerator(spec, region, 0, seed^0x1d1e, params)
			streams[0] = gen.Stream(reqs, seed)
		}
		for i := 1; i < cores; i++ {
			gen := workload.NewGenerator(spec, region, i, seed, params)
			streams[i] = gen.Stream(reqs, seed+uint64(i)*7919)
		}
		sys := NewSystem(cfg, streams)
		res := sys.Run(window)
		var instr int64
		var end dram.PS
		for _, c := range sys.Cores[1:] {
			instr += c.InstrRetired()
			if c.FinishTime() > end {
				end = c.FinishTime()
			}
		}
		if end > window {
			end = window
		}
		if end <= 0 {
			return 0, 0, false, fmt.Errorf("sim: co-run made no progress")
		}
		cycles := float64(end) / 1e12 * cpu.FreqHz
		return float64(instr) / cycles / (cores - 1), res.MitStats.Mitigations, res.Violated, nil
	}

	solo, _, _, err := victimIPC(SchemeBaseline, false)
	if err != nil {
		return CoRunResult{}, err
	}
	baseAttacked, _, _, err := victimIPC(SchemeBaseline, true)
	if err != nil {
		return CoRunResult{}, err
	}
	prot, mitigations, violated, err := victimIPC(scheme, true)
	if err != nil {
		return CoRunResult{}, err
	}

	r := CoRunResult{
		Scheme:            scheme,
		VictimIPC:         prot,
		BaselineVictimIPC: baseAttacked,
		SoloVictimIPC:     solo,
		Mitigations:       mitigations,
		Violated:          violated,
	}
	if prot > 0 {
		r.AttackSlowdown = baseAttacked / prot
	}
	return r, nil
}
