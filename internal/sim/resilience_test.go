package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cellcache"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/flight"
)

func mustRules(t *testing.T, spec string) *fault.Rules {
	t.Helper()
	rules, err := fault.ParseRules(spec)
	if err != nil {
		t.Fatalf("ParseRules(%q): %v", spec, err)
	}
	return rules
}

func resCfg(faults *fault.Rules) ExpConfig {
	return ExpConfig{
		Window:   150 * dram.PS(dram.Microsecond),
		Parallel: 2,
		Faults:   faults,
	}
}

// TestNewRunnerInvalidConfig: a config no cell could run under must yield
// an inert Runner and an error, never a panic or process abort.
func TestNewRunnerInvalidConfig(t *testing.T) {
	cases := []ExpConfig{
		{Window: -1},
	}
	for _, cfg := range cases {
		r, err := NewRunnerE(cfg)
		if err == nil {
			t.Fatalf("NewRunnerE(%+v): expected error", cfg)
		}
		if r.Err() == nil {
			t.Fatalf("Err() should report the construction error")
		}
		// The inert Runner converts every cell into a CellError.
		_, runErr := r.Run("xz", SchemeRRS, 1000)
		var ce *CellError
		if !errors.As(runErr, &ce) {
			t.Fatalf("inert Runner returned %v, want *CellError", runErr)
		}
		if ce.Workload != "xz" || !errors.Is(ce, err) {
			t.Fatalf("CellError %v does not carry the construction error %v", ce, err)
		}
	}
}

// TestGridPartialResults: a grid with one injected panicking cell and one
// injected RQA-overflow cell must run to completion, report the panic as
// a structured failure, and leave every healthy cell's numbers identical
// to a fault-free run.
func TestGridPartialResults(t *testing.T) {
	names := []string{"xz", "lbm"}
	cells := []GridCell{
		{Scheme: SchemeRRS, TRH: 1000},
		// TRH 125 is low enough that lbm's hot rows cross it within the
		// reduced window, so the scheme actually mitigates — a
		// prerequisite for the RQA-overflow fault to have a site to fire.
		{Scheme: SchemeAquaMemMapped, TRH: 125},
	}
	clean, err := NewRunner(resCfg(nil)).RunGrid(names, cells)
	if err != nil {
		t.Fatal(err)
	}

	rules := mustRules(t, "xz/rrs/1000=panic@once:0;lbm/aqua-memmapped/125=rqa-overflow@p:1")
	grid, err := NewRunner(resCfg(rules)).RunGrid(names, cells)
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("RunGrid returned %v, want *GridError", err)
	}
	if len(ge.Cells) != 1 {
		t.Fatalf("GridError has %d cells, want 1: %v", len(ge.Cells), ge)
	}
	ce := ge.Cells[0]
	if ce.Workload != "xz" || ce.Scheme != SchemeRRS || ce.TRH != 1000 {
		t.Fatalf("failed cell identity = %s/%s/%d", ce.Workload, ce.Scheme, ce.TRH)
	}
	if len(ce.Stack) == 0 {
		t.Fatalf("panicking cell carried no stack")
	}
	if !strings.Contains(ce.Error(), "injected panic") {
		t.Fatalf("CellError %q does not name the injected panic", ce.Error())
	}

	// The RQA-overflow cell must have survived, degraded to the
	// victim-refresh fallback, and counted its faults.
	over := grid[1].Cells[1]
	if over.Result.FaultStats.Injected == 0 {
		t.Fatalf("overflow cell reports no injected faults")
	}
	if over.Result.MitStats.OverflowFallbacks == 0 {
		t.Fatalf("overflow cell reports no fallback mitigations")
	}

	// Every cell the faults did not touch is byte-identical to the clean
	// run (same structs, so DeepEqual is exact).
	if !reflect.DeepEqual(grid[0].Cells[1], clean[0].Cells[1]) {
		t.Fatalf("healthy cell xz/aqua-memmapped diverged under unrelated faults")
	}
	if !reflect.DeepEqual(grid[1].Cells[0], clean[1].Cells[0]) {
		t.Fatalf("healthy cell lbm/rrs diverged under unrelated faults")
	}
	if !reflect.DeepEqual(grid[0].Baseline, clean[0].Baseline) ||
		!reflect.DeepEqual(grid[1].Baseline, clean[1].Baseline) {
		t.Fatalf("baselines diverged under faults")
	}
}

// TestFaultScheduleDeterminism: the same seed and rules must produce the
// same injected-fault counts and the same simulation numbers.
func TestFaultScheduleDeterminism(t *testing.T) {
	rules := mustRules(t, "xz/aqua-memmapped/1000=ecc-flip@p:0.01;xz/aqua-memmapped/1000=refresh-collision@p:0.5")
	run := func() WorkloadRun {
		r := NewRunner(resCfg(rules))
		wr, err := r.Run("xz", SchemeAquaMemMapped, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return wr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulted runs diverged:\na: %+v\nb: %+v", a, b)
	}
	if a.Result.FaultStats.Injected == 0 {
		t.Fatalf("fault schedule never fired")
	}
}

// TestTransientRetry: an injected transient failure must be retried (with
// the transient arms dropped) and converge to the fault-free result —
// on a scheme cell, and on every cell of a grid including the baseline
// cells and their calibration, which are shared dependencies protected
// like any cell.
func TestTransientRetry(t *testing.T) {
	names := []string{"xz", "wrf"}
	cells := []GridCell{{Scheme: SchemeRRS, TRH: 1000}}
	for _, tc := range []struct {
		rules     string
		calibrate bool
		names     []string
		// backoffs is the expected retry-backoff calls: one re-attempt per
		// transient-failing compute.
		backoffs []int
	}{
		{"xz/rrs/1000=transient@once:0", false, names[:1], []int{1}},
		// Per workload: calibration, baseline cell and rrs cell each fail
		// once and retry once.
		{"*/*/*=transient@once:0", true, names, []int{1, 1, 1, 1, 1, 1}},
	} {
		cfg := resCfg(nil)
		cfg.Calibrate = tc.calibrate
		clean, err := NewRunner(cfg).RunGrid(tc.names, cells)
		if err != nil {
			t.Fatal(err)
		}

		cfg.Faults = mustRules(t, tc.rules)
		cfg.Parallel = 1
		r := NewRunner(cfg)
		var attempts []int
		r.retryBackoff = func(attempt int) { attempts = append(attempts, attempt) }
		got, err := r.RunGrid(tc.names, cells)
		if err != nil {
			t.Fatalf("%s: transient cells did not recover: %v", tc.rules, err)
		}
		if !reflect.DeepEqual(attempts, tc.backoffs) {
			t.Fatalf("%s: backoff calls = %v, want %v", tc.rules, attempts, tc.backoffs)
		}
		if !reflect.DeepEqual(got, clean) {
			t.Fatalf("%s: retried grid diverged from fault-free run:\ngot:   %+v\nclean: %+v", tc.rules, got, clean)
		}

		// With retries disabled the same cells must fail as CellErrors.
		cfg.Retries = -1
		_, err = NewRunner(cfg).Run("xz", SchemeRRS, 1000)
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: unretried transient returned %v, want *CellError", tc.rules, err)
		}
		if ce.Workload != "xz" || ce.Scheme != SchemeRRS || ce.TRH != 1000 {
			t.Fatalf("%s: failure attributed to %s/%s/%d, want xz/rrs/1000", tc.rules, ce.Workload, ce.Scheme, ce.TRH)
		}
		if !flight.IsTransient(ce) {
			t.Fatalf("%s: CellError should still expose the transient marker", tc.rules)
		}
	}
}

// TestGridCancellation: cancelling mid-grid must stop the run promptly,
// return the context's error, and leak no goroutines (the -race build of
// this test is the acceptance check for clean shutdown). The cancel is
// triggered from inside the grid — the retry-backoff hook of an injected
// transient failure — so the run is provably mid-flight, with cells both
// executing and still undispatched.
func TestGridCancellation(t *testing.T) {
	rules := mustRules(t, "xz/rrs/1000=transient@once:0")
	r := NewRunner(resCfg(rules))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.retryBackoff = func(int) { cancel() }
	names := []string{"xz", "wrf", "lbm", "mcf"}
	cells := []GridCell{
		{Scheme: SchemeRRS, TRH: 1000},
		{Scheme: SchemeAquaMemMapped, TRH: 1000},
	}
	grid, err := r.RunGridCtx(ctx, names, cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled grid returned %v, want context.Canceled", err)
	}
	// The partial grid is still handed back alongside the error.
	if len(grid) != len(names) {
		t.Fatalf("cancelled grid lost its shape: %d rows", len(grid))
	}
}

// TestCacheResume: a grid interrupted after partial completion on a disk
// store and resumed by a fresh Runner over the same directory must
// produce a byte-identical final grid, simulating only the cells the
// first run did not finish and reusing its calibrations.
func TestCacheResume(t *testing.T) {
	names := []string{"xz", "wrf"}
	cells := []GridCell{
		{Scheme: SchemeRRS, TRH: 1000},
		{Scheme: SchemeAquaMemMapped, TRH: 1000},
	}
	cfg := resCfg(nil)
	cfg.Calibrate = true
	clean, err := NewRunner(cfg).RunGrid(names, cells)
	if err != nil {
		t.Fatal(err)
	}

	// First run: only the rrs column — a stand-in for a grid interrupted
	// after calibrating both workloads and finishing part of the cells.
	dir := t.TempDir()
	s1, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(cfg)
	r1.AttachCellCache(s1)
	if _, err := r1.RunGrid(names, cells[:1]); err != nil {
		t.Fatal(err)
	}

	// Resume: a fresh Runner over a fresh Store on the same directory.
	s2, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(cfg)
	r2.AttachCellCache(s2)
	grid, err := r2.RunGrid(names, cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid, clean) {
		t.Fatalf("resumed grid diverged from uninterrupted run:\ngot:  %+v\nwant: %+v", grid, clean)
	}
	// Only the two aqua cells are new. A rerun calibration would have
	// been written back too.
	if st := r2.CellStats(); st.Simulated != 2 || st.CacheHits == 0 {
		t.Fatalf("resumed stats %+v, want 2 simulated and the rest served from disk", st)
	}
	if st := s2.Stats(); st.Puts != 2 {
		t.Fatalf("resumed store stats %+v, want exactly the 2 new cells written", st)
	}
}
