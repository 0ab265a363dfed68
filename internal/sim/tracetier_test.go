package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cellcache"
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
	cores := int64(r.Config().Cores)
	if stats.TraceCaptures != cores {
		t.Fatalf("TraceCaptures = %d, want %d (one per core)", stats.TraceCaptures, cores)
	}
	// Three runs build streams (the baseline measurement plus two scheme
	// cells); the first captures, the other two replay.
	if want := 2 * cores; stats.TraceReplays != want {
		t.Fatalf("TraceReplays = %d, want %d", stats.TraceReplays, want)
	}
	if stats.TraceDiskHits != 0 {
		t.Fatalf("TraceDiskHits = %d, want 0 (in-memory tier only)", stats.TraceDiskHits)
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

// TestTraceBudgetFallback runs with a budget below any capture and no
// disk tier: every stream build captures and is served uncached, and the
// results still match the in-memory-tier run.
func TestTraceBudgetFallback(t *testing.T) {
	want, err := NewRunner(traceCfg()).RunGrid([]string{"xz"}, traceCells)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traceCfg()
	cfg.TraceBudgetBytes = 1
	r := NewRunner(cfg)
	got, err := r.RunGrid([]string{"xz"}, traceCells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("over-budget grid diverged from in-memory-tier grid")
	}
	stats := r.CellStats()
	cores := int64(r.Config().Cores)
	if stats.TraceCaptures != 3*cores {
		t.Fatalf("TraceCaptures = %d, want %d (every build recaptures)", stats.TraceCaptures, 3*cores)
	}
	if stats.TraceReplays != 0 || stats.TraceDiskHits != 0 {
		t.Fatalf("uncached fallback still counted replays: %+v", stats)
	}
}

// TestTraceSpillToDisk forces the in-memory budget to zero so every
// capture spills as a v2 file under the cell cache directory, then
// checks later Runners sharing the directory replay the spilled traces
// instead of generating (cross-process reuse), and that a corrupt spill
// reads as a miss — recaptured, never replayed wrong.
func TestTraceSpillToDisk(t *testing.T) {
	dir := t.TempDir()
	store, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traceCfg()
	cfg.TraceBudgetBytes = 1 // below any capture's footprint
	r := NewRunner(cfg)
	r.AttachCellCache(store)
	if _, err := r.RunGrid([]string{"xz"}, traceCells); err != nil {
		t.Fatal(err)
	}
	stats := r.CellStats()
	cores := int64(r.Config().Cores)
	if stats.TraceCaptures != cores {
		t.Fatalf("TraceCaptures = %d, want %d", stats.TraceCaptures, cores)
	}
	if stats.TraceDiskHits != 2*cores {
		t.Fatalf("TraceDiskHits = %d, want %d (replays served from spill)", stats.TraceDiskHits, 2*cores)
	}
	files, err := filepath.Glob(filepath.Join(dir, "traces", "*.aqt2"))
	if err != nil || int64(len(files)) != cores {
		t.Fatalf("spilled %d trace files (%v), want %d", len(files), err, cores)
	}

	// A second Runner over the same directory with cells the result cache
	// has not seen (different threshold) must simulate — and replay the
	// spilled traces rather than capture. Reference results come from a
	// regenerating runner.
	freshCells := []GridCell{{Scheme: SchemeAquaMemMapped, TRH: 2000}}
	regenCfg := traceCfg()
	regenCfg.DisableTraceReplay = true
	want, err := NewRunner(regenCfg).RunGrid([]string{"xz"}, freshCells)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(cfg)
	store2, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2.AttachCellCache(store2)
	got, err := r2.RunGrid([]string{"xz"}, freshCells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("disk-replayed grid diverged from regenerated:\nreplay: %+v\nregen:  %+v", got, want)
	}
	s2 := r2.CellStats()
	if s2.TraceCaptures != 0 {
		t.Fatalf("second process re-captured %d streams; want replay from spill", s2.TraceCaptures)
	}
	if s2.TraceDiskHits == 0 {
		t.Fatalf("second process never hit the spilled traces: %+v", s2)
	}

	// Corrupt one spilled file: its core recaptures (and rewrites the
	// spill); the others still replay. Results stay correct.
	if err := corruptFile(files[0]); err != nil {
		t.Fatal(err)
	}
	moreCells := []GridCell{{Scheme: SchemeAquaMemMapped, TRH: 3000}, {Scheme: SchemeRRS, TRH: 3000}}
	want3, err := NewRunner(regenCfg).RunGrid([]string{"xz"}, moreCells)
	if err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(cfg)
	store3, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	r3.AttachCellCache(store3)
	got3, err := r3.RunGrid([]string{"xz"}, moreCells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want3, got3) {
		t.Fatalf("grid with corrupt spill diverged from regenerated")
	}
	s3 := r3.CellStats()
	if s3.TraceCaptures != 1 {
		t.Fatalf("TraceCaptures = %d, want 1 (only the corrupt core recaptures)", s3.TraceCaptures)
	}
	// The baseline cell comes from the result store, so the two new cells
	// are the only stream builds. First build: cores-1 healthy spills hit,
	// one recaptures. Second build: all cores hit the (rewritten) mappings.
	if want := 2*cores - 1; s3.TraceDiskHits != want {
		t.Fatalf("TraceDiskHits = %d, want %d", s3.TraceDiskHits, want)
	}
}

// corruptFile flips one byte in the middle of the file (a block payload;
// the index and footer live at the end).
func corruptFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x01
	return os.WriteFile(path, data, 0o644)
}
