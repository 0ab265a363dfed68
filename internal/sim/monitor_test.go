package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dram"
)

// TestActiveCellsSecure reruns lbm's mitigated cells of the active golden
// (16ms window, calibrated, T_RH=1K) with the security monitor attached.
// The monitor only observes activations, so each rerun must reproduce the
// Runner's Result exactly, and no row may cross T_RH.
func TestActiveCellsSecure(t *testing.T) {
	r, err := NewRunnerE(ExpConfig{Window: 16 * dram.Millisecond, Calibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := r.nominalIPC(context.Background(), "lbm")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SchemeAquaSRAM, SchemeAquaMemMapped, SchemeRRS} {
		want, err := r.Run("lbm", scheme, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if want.Result.MitStats.RowMigrations == 0 {
			t.Errorf("%s: no migrations; the cell does not exercise mitigation", scheme)
		}
		streams, err := r.streamsFor("lbm", nominal)
		if err != nil {
			t.Fatal(err)
		}
		sys := NewSystem(Config{TRH: 1000, Scheme: scheme, Seed: r.cfg.Seed, Monitor: true}, streams)
		got := sys.Run(0)
		if got.Violated {
			t.Errorf("%s: a row crossed T_RH (peak %d ACTs in a window)", scheme, got.MaxWindowACTs)
		}
		got.Violated, got.MaxWindowACTs = false, 0
		if !reflect.DeepEqual(got, want.Result) {
			t.Errorf("%s: monitored rerun diverged from the Runner's cell:\n got  %+v\n want %+v", scheme, got, want.Result)
		}
	}
}
