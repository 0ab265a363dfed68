package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/tracker"
)

// TestActiveCellsSecure reruns mitigated cells of the active golden (16ms
// window, calibrated) with the security monitor attached: lbm's
// aqua-sram, aqua-memmapped and rrs cells at T_RH=1K, and aqua-memmapped
// at the thresholds whose tracker and RQA sizes lie furthest from 1K's —
// lbm at T_RH=500, and roms at T_RH=2000 (lbm does not migrate at 2000
// within 16ms). The two off-1K cells also carry the runtime invariant
// checker, and a full structural sweep of the engine and its tracker at
// the end. The observers only watch, so each rerun must reproduce the
// Runner's Result exactly; no row may cross T_RH and no invariant may be
// reported.
func TestActiveCellsSecure(t *testing.T) {
	r, err := NewRunnerE(ExpConfig{Window: 16 * dram.Millisecond, Calibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload   string
		scheme     Scheme
		trh        int64
		invariants bool
	}{
		{"lbm", SchemeAquaSRAM, 1000, false},
		{"lbm", SchemeAquaMemMapped, 1000, false},
		{"lbm", SchemeRRS, 1000, false},
		{"lbm", SchemeAquaMemMapped, 500, true},
		{"roms", SchemeAquaMemMapped, 2000, true},
	} {
		name := fmt.Sprintf("%s/%s/%d", c.workload, c.scheme, c.trh)
		want, err := r.Run(c.workload, c.scheme, c.trh)
		if err != nil {
			t.Fatal(err)
		}
		if want.Result.MitStats.RowMigrations == 0 {
			t.Errorf("%s: no migrations; the cell does not exercise mitigation", name)
		}
		nominal, err := r.nominalIPC(context.Background(), c.workload)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := r.streamsFor(c.workload, nominal)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{TRH: c.trh, Scheme: c.scheme, Seed: r.cfg.Seed, Monitor: true}
		if c.invariants {
			cfg.Invariants = invariant.New()
		}
		sys := NewSystem(cfg, streams)
		got := sys.Run(0)
		if got.Violated {
			t.Errorf("%s: a row crossed T_RH (peak %d ACTs in a window)", name, got.MaxWindowACTs)
		}
		if c.invariants {
			// A 16ms cell ends before the first epoch boundary, where the
			// engine's full structural sweep runs; sweep once at the end.
			if err := sys.Aqua.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if err := sys.Aqua.Tracker().(*tracker.MisraGries).CheckConsistency(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if err := cfg.Invariants.Err(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		got.Violated, got.MaxWindowACTs = false, 0
		if !reflect.DeepEqual(got, want.Result) {
			t.Errorf("%s: monitored rerun diverged from the Runner's cell:\n got  %+v\n want %+v", name, got, want.Result)
		}
	}
}
