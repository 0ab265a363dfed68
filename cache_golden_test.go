package repro

// Acceptance tests for the content-addressed result cache (see DESIGN.md
// "Result cache & incremental recomputation"):
//
//   - a lab rendered entirely from a warm on-disk cache emits the exact
//     golden byte stream, without simulating a single cell;
//   - a run that lost a cell to an injected panic resumes from the cache:
//     a fault-free lab reproduces the golden bytes, simulates only the
//     lost cell, and double-counts nothing;
//   - fault-injected cells are keyed by their fault plans: a repeat run
//     under the same rules is served them from the cache, and they appear
//     exactly once in the degraded-cell summary.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cellcache"
)

// warmStore builds a store over dir, failing the test on error.
func warmStore(t *testing.T, dir string) *cellcache.Store {
	t.Helper()
	s, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLabCacheWarmGolden is the cache's headline acceptance: a cold lab
// populates a cache directory while rendering the golden stream, and a
// fresh lab over a fresh Store on the same directory re-renders it
// byte-identically — with every cell served from disk, none simulated.
func TestLabCacheWarmGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "lab_golden.txt"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	dir := t.TempDir()

	cold := labAt(1)
	cold.AttachCache(warmStore(t, dir))
	got, err := renderGoldenLab(cold)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("cold cached lab diverged from golden:\n%s", firstDiff(string(want), got))
	}
	if cs := cold.CellStats(); cs.Simulated == 0 {
		t.Fatalf("cold lab stats %+v; expected simulations", cs)
	}

	warm := labAt(1)
	warm.AttachCache(warmStore(t, dir))
	got, err = renderGoldenLab(warm)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("warm cached lab diverged from golden:\n%s", firstDiff(string(want), got))
	}
	cs := warm.CellStats()
	if cs.CacheHits == 0 {
		t.Fatalf("warm lab stats %+v; took no cache hits", cs)
	}
	if cs.Simulated != 0 {
		t.Fatalf("warm lab stats %+v; simulated %d cells, want 0", cs, cs.Simulated)
	}
}

// TestLabCacheResumeInteraction composes resume with fault injection: a
// lab whose run lost one cell to an injected panic leaves every other
// cell in the store, and a fault-free lab over the same directory renders
// the golden bytes exactly while simulating only the lost cell.
func TestLabCacheResumeInteraction(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "lab_golden.txt"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	dir := t.TempDir()

	// Partial run: xz/rrs/1000 panics, so the renderers needing it fail;
	// every other cell completes and is stored.
	partial := faultedLab(t, "xz/rrs/1000=panic@p:1")
	partial.AttachCache(warmStore(t, dir))
	failed := 0
	for _, r := range Renderers() {
		if _, err := r.Fn(partial); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("the panicking cell did not fail its renderers")
	}

	resumed := labAt(1)
	resumed.AttachCache(warmStore(t, dir))
	got, err := renderGoldenLab(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("resumed lab diverged from golden:\n%s", firstDiff(string(want), got))
	}
	cs := resumed.CellStats()
	if cs.Simulated != 1 || cs.CacheHits == 0 {
		t.Fatalf("resumed lab stats %+v; want only the lost cell simulated, the rest served", cs)
	}
	// No double counting: every request is a hit, a dedup, a simulation or
	// an error.
	if total := cs.CacheHits + cs.Deduped() + cs.Simulated + cs.Errors; total != cs.Requests {
		t.Fatalf("stats %+v don't add up: %d accounted of %d requests", cs, total, cs.Requests)
	}
}

// TestLabCacheFaultedCellsServed pins fault-plan keying at the lab level:
// with a warm cache, a second run under the same rules is served the
// fault-matched cell from its plan-keyed entry — injections intact, so it
// is listed exactly once in the degraded summary — along with the clean
// cells around it, and simulates nothing.
func TestLabCacheFaultedCellsServed(t *testing.T) {
	const spec = "wrf/aqua-sram/1000=refresh-collision@p:0.5"
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	render := func() *Lab {
		l := faultedLab(t, spec)
		l.AttachCache(store)
		if _, err := l.Figure9(); err != nil {
			t.Fatalf("figure9 should survive a recovered hardware fault: %v", err)
		}
		return l
	}
	assertFaultedOnce := func(which string, l *Lab) {
		count := 0
		for _, c := range l.FaultedCells() {
			if c.Workload == "wrf" && c.Scheme == SchemeAquaSRAM && c.TRH == 1000 {
				count++
				if c.Injected == 0 {
					t.Fatalf("%s run: degraded cell listed with no injections", which)
				}
			}
		}
		if count != 1 {
			t.Fatalf("%s run: degraded cell listed %d times, want exactly once", which, count)
		}
	}

	assertFaultedOnce("first", render())

	second := render()
	assertFaultedOnce("second", second)
	cs := second.CellStats()
	if cs.CacheHits == 0 {
		t.Fatalf("second run stats %+v; clean cells should be served from the cache", cs)
	}
	if cs.Simulated != 0 {
		t.Fatalf("second run stats %+v; the faulted cell must be served like the clean ones", cs)
	}
}
