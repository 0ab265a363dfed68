package sim

import (
	"reflect"
	"testing"

	"repro/internal/dram"
)

// traceCfg is a reduced experiment for trace-tier tests: tiny window, no
// calibration, serial so counter expectations are exact.
func traceCfg() ExpConfig {
	return ExpConfig{
		Window:    150 * dram.PS(dram.Microsecond),
		Calibrate: false,
		Parallel:  1,
	}
}

var traceCells = []GridCell{
	{Scheme: SchemeAquaMemMapped, TRH: 1000},
	{Scheme: SchemeRRS, TRH: 1000},
}

// TestTraceReplayMatchesGeneration is the scheme-invariance equivalence
// gate in unit form: a grid run replaying captured traces must be
// byte-identical to one regenerating every stream.
func TestTraceReplayMatchesGeneration(t *testing.T) {
	names := []string{"xz", "wrf"}
	replay, err := NewRunner(traceCfg()).RunGrid(names, traceCells)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traceCfg()
	cfg.DisableTraceReplay = true
	regen, err := NewRunner(cfg).RunGrid(names, traceCells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, regen) {
		t.Fatalf("replayed grid diverged from regenerated:\nreplay: %+v\nregen:  %+v", replay, regen)
	}
}

// TestTraceTierCounters checks the capture/replay accounting: each
// (workload, core) captures once, and every later stream build replays.
func TestTraceTierCounters(t *testing.T) {
	r := NewRunner(traceCfg())
	if _, err := r.RunGrid([]string{"xz"}, traceCells); err != nil {
		t.Fatal(err)
	}
	stats := r.CellStats()
	if stats.TraceCaptures != cores {
		t.Fatalf("TraceCaptures = %d, want %d (one per core)", stats.TraceCaptures, cores)
	}
	// Three runs build streams (the baseline measurement plus two scheme
	// cells); the first captures, the other two replay.
	if want := int64(2 * cores); stats.TraceReplays != want {
		t.Fatalf("TraceReplays = %d, want %d", stats.TraceReplays, want)
	}

	off := traceCfg()
	off.DisableTraceReplay = true
	r2 := NewRunner(off)
	if _, err := r2.RunGrid([]string{"xz"}, traceCells); err != nil {
		t.Fatal(err)
	}
	if s := r2.CellStats(); s.TraceCaptures != 0 || s.TraceReplays != 0 {
		t.Fatalf("disabled tier still counted: %+v", s)
	}
}

// TestTraceBudgetFallback runs with a budget below any capture: every
// stream build captures and is served uncached, and the results still
// match the in-memory-tier run.
func TestTraceBudgetFallback(t *testing.T) {
	want, err := NewRunner(traceCfg()).RunGrid([]string{"xz"}, traceCells)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(traceCfg())
	r.traceBudget = 1
	got, err := r.RunGrid([]string{"xz"}, traceCells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("over-budget grid diverged from in-memory-tier grid")
	}
	stats := r.CellStats()
	if stats.TraceCaptures != 3*cores {
		t.Fatalf("TraceCaptures = %d, want %d (every build recaptures)", stats.TraceCaptures, 3*cores)
	}
	if stats.TraceReplays != 0 {
		t.Fatalf("uncached fallback still counted replays: %+v", stats)
	}
}
