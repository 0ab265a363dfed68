package sim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cellcache"
	"repro/internal/dram"
	"repro/internal/fault"
)

// dupCells is a grid with a repeated cell, the shape every threshold
// sweep produces (the same baseline cell at every sweep point).
var dupCells = []GridCell{
	{Scheme: SchemeAquaMemMapped, TRH: 1000},
	{Scheme: SchemeRRS, TRH: 1000},
	{Scheme: SchemeAquaMemMapped, TRH: 1000},
}

// TestRunGridDedupSimulatesOnce pins the no-cache dedup guarantee:
// identical cells inside one grid — whether requested sequentially
// (serial) or concurrently (parallel) — simulate exactly once, and the
// duplicate requests are answered from the same completed execution.
func TestRunGridDedupSimulatesOnce(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		r := NewRunner(gridCfg(parallel))
		out, err := r.RunGrid(gridNames, dupCells)
		if err != nil {
			t.Fatal(err)
		}
		// Per workload: 3 requested cells + 1 baseline row, of which the
		// repeated aqua cell is a duplicate -> 3 unique simulations. The
		// two simulated scheme cells each resolve the baseline cell as a
		// dependency, which counts as a request too.
		st := r.CellStats()
		wantRequests := int64(len(gridNames) * (len(dupCells) + 1 + 2))
		wantSimulated := int64(len(gridNames) * 3)
		if st.Requests != wantRequests {
			t.Fatalf("parallel=%d: %d requests, want %d (stats %+v)", parallel, st.Requests, wantRequests, st)
		}
		if st.Simulated != wantSimulated {
			t.Fatalf("parallel=%d: %d cells simulated, want %d (stats %+v)", parallel, st.Simulated, wantSimulated, st)
		}
		if want := wantRequests - wantSimulated; st.Deduped() != want {
			t.Fatalf("parallel=%d: Deduped() = %d, want %d (stats %+v)", parallel, st.Deduped(), want, st)
		}
		for _, gr := range out {
			if !reflect.DeepEqual(gr.Cells[0], gr.Cells[2]) {
				t.Fatalf("parallel=%d: %s duplicate cells diverged", parallel, gr.Workload)
			}
		}
	}
}

// TestCellCacheRoundTrip pins the cross-runner contract: a cell computed
// by one Runner is served — bit-identical — to a fresh Runner sharing
// the store, without simulating.
func TestCellCacheRoundTrip(t *testing.T) {
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(gridCfg(1))
	r1.AttachCellCache(store)
	want, err := r1.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.CellStats(); st.CacheMisses == 0 || st.Simulated == 0 {
		t.Fatalf("cold runner stats %+v; want a miss and a simulation", st)
	}

	r2 := NewRunner(gridCfg(1))
	r2.AttachCellCache(store)
	got, err := r2.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached result diverged:\nwant %+v\ngot  %+v", want, got)
	}
	st := r2.CellStats()
	if st.CacheHits == 0 || st.Simulated != 0 {
		t.Fatalf("warm runner stats %+v; want a hit and no simulation", st)
	}
}

// TestCellCacheSchemaBump pins the invalidation mechanism: an entry
// written under a previous SchemaVersion — even a perfectly valid one —
// is invisible to the current runner, which recomputes.
func TestCellCacheSchemaBump(t *testing.T) {
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	// Produce a genuine result and store it under the *previous*
	// generation's key, simulating a cache populated before a bump.
	r1 := NewRunner(gridCfg(1))
	run, err := r1.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	oldKey, err := r1.keyAt("aqua-cell-v1", "cell", cellKey{"xz", SchemeAquaMemMapped, 1000})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(oldKey, data)

	r2 := NewRunner(gridCfg(1))
	r2.AttachCellCache(store)
	got, err := r2.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// The cell and its baseline dependency both simulate.
	st := r2.CellStats()
	if st.CacheHits != 0 || st.Simulated != 2 {
		t.Fatalf("stats %+v; a stale-generation entry must be a miss, not a hit", st)
	}
	if !reflect.DeepEqual(got, run) {
		t.Fatal("recomputed result diverged from the original")
	}
}

// TestCellCacheCorruptEntry pins the corruption contract end to end: a
// cell whose on-disk entry is torn or tampered with is recomputed —
// silently, correctly — never served wrong and never surfaced as an
// error.
func TestCellCacheCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s1, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(gridCfg(1))
	r1.AttachCellCache(s1)
	want, err := r1.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := r1.CellKey("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, hash), []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(gridCfg(1))
	r2.AttachCellCache(s2)
	got, err := r2.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recomputed result diverged after corruption")
	}
	// The corrupt cell recomputes; its intact baseline dependency is
	// served from disk.
	if st := r2.CellStats(); st.CacheHits != 1 || st.Simulated != 1 {
		t.Fatalf("stats %+v; corrupt entry must read as a miss", st)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("store stats %+v; want the corruption counted", st)
	}
}

// TestCellCachePayloadMismatch pins the sim-layer identity check above
// the store's checksum: a checksum-valid entry whose decoded identity
// doesn't match the requested cell is discarded, not served.
func TestCellCachePayloadMismatch(t *testing.T) {
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(gridCfg(1))
	wrong, err := r1.Run("wrf", SchemeRRS, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// A different cell's (valid) payload planted under xz/aqua's key.
	hash, err := r1.CellKey("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(wrong)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(hash, data)

	r2 := NewRunner(gridCfg(1))
	r2.AttachCellCache(store)
	got, err := r2.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "xz" || got.Scheme != SchemeAquaMemMapped {
		t.Fatalf("served a foreign cell: %s/%s", got.Workload, got.Scheme)
	}
	// The cell and its baseline dependency both simulate.
	if st := r2.CellStats(); st.CacheHits != 0 || st.Simulated != 2 {
		t.Fatalf("stats %+v; mismatched payload must be a miss", st)
	}
}

// TestFaultedCellPlanKeyed pins the fault-plan keying: a faulted cell is
// stored under a key that hashes its plan, so a fault-free Runner on the
// same store misses it, while a second Runner under the same rules is
// served the faulted result, injections included, without simulating.
func TestFaultedCellPlanKeyed(t *testing.T) {
	rules, err := fault.ParseRules("lbm/aqua-memmapped/125=rqa-overflow@p:1")
	if err != nil {
		t.Fatal(err)
	}
	faulted := gridCfg(1)
	faulted.Faults = rules
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(faulted)
	r1.AttachCellCache(store)
	first, err := r1.Run("lbm", SchemeAquaMemMapped, 125)
	if err != nil {
		t.Fatal(err)
	}
	if first.Result.FaultStats.Injected == 0 {
		t.Fatal("injected faults not observed")
	}

	faultedKey, err := r1.CellKey("lbm", SchemeAquaMemMapped, 125)
	if err != nil {
		t.Fatal(err)
	}
	clean := NewRunner(gridCfg(1))
	cleanKey, err := clean.CellKey("lbm", SchemeAquaMemMapped, 125)
	if err != nil {
		t.Fatal(err)
	}
	if faultedKey == cleanKey {
		t.Fatal("the faulted cell keys like its fault-free run")
	}
	// The rule leaves the baseline alone, so the baseline key is shared.
	if a, b := mustKey(t, r1, "lbm", SchemeBaseline, 1000), mustKey(t, clean, "lbm", SchemeBaseline, 1000); a != b {
		t.Fatal("an unmatched baseline cell keys differently under unrelated rules")
	}

	clean.AttachCellCache(store)
	got, err := clean.Run("lbm", SchemeAquaMemMapped, 125)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.FaultStats.Injected != 0 {
		t.Fatal("a fault-free Runner was served the faulted result")
	}
	if st := clean.CellStats(); st.Simulated != 1 {
		t.Fatalf("fault-free stats %+v; want the cell simulated and its baseline served", st)
	}

	r2 := NewRunner(faulted)
	r2.AttachCellCache(store)
	again, err := r2.Run("lbm", SchemeAquaMemMapped, 125)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("served faulted cell diverged:\nwant %+v\ngot  %+v", first, again)
	}
	if st := r2.CellStats(); st.Simulated != 0 || st.CacheHits != 1 {
		t.Fatalf("second faulted stats %+v; want one cache hit, nothing simulated", st)
	}
}

// TestBaselineFaultNeverPoisonsCache: a rule that matches only a
// workload's baseline changes every other cell of that workload (they
// are normalized against it), so those cells must key apart from their
// fault-free runs. A fault-free Runner on the same store must get the
// clean result.
func TestBaselineFaultNeverPoisonsCache(t *testing.T) {
	want, err := NewRunner(gridCfg(1)).Run("xz", SchemeRRS, 1000)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	faulted := gridCfg(1)
	faulted.Faults = mustRules(t, "xz/baseline/1000=ecc-flip@p:1")
	r1 := NewRunner(faulted)
	r1.AttachCellCache(store)
	poisoned, err := r1.Run("xz", SchemeRRS, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if poisoned.NormIPC == want.NormIPC {
		t.Fatal("the baseline-only rule did not change the scheme cell; the test has no teeth")
	}

	r2 := NewRunner(gridCfg(1))
	r2.AttachCellCache(store)
	got, err := r2.Run("xz", SchemeRRS, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fault-free Runner served a baseline-faulted result:\nwant %+v\ngot  %+v", want, got)
	}
}

func mustKey(t *testing.T, r *Runner, name string, scheme Scheme, trh int64) string {
	t.Helper()
	k, err := r.CellKey(name, scheme, trh)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCancelledCellNotCached pins the cancellation exclusion: a cell cut
// short by its context must not leave a partial result in the store.
func TestCancelledCellNotCached(t *testing.T) {
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(gridCfg(1))
	r.AttachCellCache(store)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCtx(ctx, "xz", SchemeAquaMemMapped, 1000); err == nil {
		t.Fatal("cancelled cell reported success")
	}
	if st := store.Stats(); st.Puts != 0 {
		t.Fatalf("store stats %+v; a cancelled cell was cached", st)
	}
	if st := r.CellStats(); st.Errors == 0 {
		t.Fatalf("cell stats %+v; the cancelled request was not counted", st)
	}
}

// TestCellKeyDeterminism pins that the key is a pure function of the
// configuration: same config same key, any varied determinant a
// different key, and wall-clock-only knobs (Parallel) no change.
func TestCellKeyDeterminism(t *testing.T) {
	base := gridCfg(1)
	key := func(cfg ExpConfig, name string, scheme Scheme, trh int64) string {
		k, err := NewRunner(cfg).CellKey(name, scheme, trh)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k0 := key(base, "xz", SchemeAquaMemMapped, 1000)
	if k0 != key(base, "xz", SchemeAquaMemMapped, 1000) {
		t.Fatal("same configuration produced different keys")
	}
	if k0 != key(gridCfg(8), "xz", SchemeAquaMemMapped, 1000) {
		t.Fatal("Parallel changed the key; it must not (wall-clock only)")
	}
	variants := map[string]string{
		"scheme":   key(base, "xz", SchemeRRS, 1000),
		"trh":      key(base, "xz", SchemeAquaMemMapped, 2000),
		"workload": key(base, "wrf", SchemeAquaMemMapped, 1000),
	}
	seed := base
	seed.Seed = 7
	variants["seed"] = key(seed, "xz", SchemeAquaMemMapped, 1000)
	window := base
	window.Window = 2 * base.Window
	variants["window"] = key(window, "xz", SchemeAquaMemMapped, 1000)
	seen := map[string]string{k0: "base"}
	for what, k := range variants {
		if prior, dup := seen[k]; dup {
			t.Fatalf("varying %s collided with %s", what, prior)
		}
		seen[k] = what
	}
}

// TestCellKeyPinned pins one cell key and one calibration key to their
// hex values, so a refactor of what keyAt prints cannot silently orphan
// every existing cache directory: a change here needs a SchemaVersion
// bump and a reason.
func TestCellKeyPinned(t *testing.T) {
	r := NewRunner(ExpConfig{Window: 4 * dram.Millisecond, Calibrate: true})
	if k := mustKey(t, r, "lbm", SchemeAquaMemMapped, 1000); k != "4d070c8baf6b2d4fd6fba68e0f26c1cf0fd2d87dcc4aeff791ce93cc5235e3c6" {
		t.Errorf("lbm/aqua-memmapped/1000 cell key = %s", k)
	}
	k, err := r.ipcKey("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if k != "8ec021f251a63c2a4c943c0d7b5e6852469fbc40fcf97a068fdf410bbf9c1a5f" {
		t.Errorf("lbm calibration key = %s", k)
	}
}

// TestSharedStoreConcurrentRunners pins the cross-Runner contract:
// Runners share nothing but the content-addressed store. Two Runners
// resolving the same cell at once over one cache directory may both
// simulate it, and both must return the identical result; a third,
// fresh Runner on that directory then serves the cell without simulating.
func TestSharedStoreConcurrentRunners(t *testing.T) {
	dir := t.TempDir()
	run := func() (WorkloadRun, CellStats, error) {
		store, err := cellcache.New(dir)
		if err != nil {
			return WorkloadRun{}, CellStats{}, err
		}
		r := NewRunner(gridCfg(1))
		r.AttachCellCache(store)
		res, err := r.Run("xz", SchemeAquaMemMapped, 1000)
		return res, r.CellStats(), err
	}
	var got [2]WorkloadRun
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, errs[i] = run()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("runner %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("concurrent runners diverged:\n 0: %+v\n 1: %+v", got[0], got[1])
	}

	res, st, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got[0]) {
		t.Fatalf("stored result diverged:\nwant %+v\ngot  %+v", got[0], res)
	}
	if st.Simulated != 0 || st.CacheHits < 1 {
		t.Fatalf("fresh runner stats %+v; want a hit and no simulation", st)
	}
}

// TestOnCellStartFiresPerComputeAttempt: the hook fires once per compute
// attempt — baseline + scheme cell — and never for cells served from the
// memo.
func TestOnCellStartFiresPerComputeAttempt(t *testing.T) {
	cfg := gridCfg(1)
	var mu sync.Mutex
	var starts []string
	cfg.OnCellStart = func(w string, s Scheme, trh int64) {
		mu.Lock()
		starts = append(starts, w+"/"+s.String())
		mu.Unlock()
	}
	r := NewRunner(cfg)
	if _, err := r.Run("xz", SchemeAquaMemMapped, 1000); err != nil {
		t.Fatal(err)
	}
	// One compute attempt for the baseline cell the scheme cell depends
	// on, then one for the scheme cell.
	if !reflect.DeepEqual(starts, []string{"xz/baseline", "xz/aqua-memmapped"}) {
		t.Fatalf("OnCellStart fired %v, want exactly [xz/baseline xz/aqua-memmapped]", starts)
	}
	// A repeat of the same cell is served from the memo: no new fires.
	if _, err := r.Run("xz", SchemeAquaMemMapped, 1000); err != nil {
		t.Fatal(err)
	}
	if len(starts) != 2 {
		t.Fatalf("memo-served cell fired OnCellStart: %v", starts)
	}
	// A different cell fires again.
	if _, err := r.Run("xz", SchemeRRS, 1000); err != nil {
		t.Fatal(err)
	}
	if len(starts) != 3 || starts[2] != "xz/rrs" {
		t.Fatalf("second cell: OnCellStart fired %v", starts)
	}
}
