package sim

// Content-addressed keys (see DESIGN.md "Result cache & incremental
// recomputation"). Every unit of work is a pure function of the
// experiment configuration, so its result can be stored under a hash of
// that configuration and served on any later run, in any process.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/cellcache"
)

// SchemaVersion names the generation of simulation semantics that cached
// results belong to. Bump it whenever a change alters any simulated
// number — timing model, scheme behaviour, workload synthesis, the
// request-budget formula — or what a key covers, and every previously
// written entry hashes to a key no runner will ever ask for again: stale
// results cannot be served, only ignored. v2 added the fault plans to
// every key and the calibrated IPC as a unit of its own.
const SchemaVersion = "aqua-cell-v2"

// cellKey is one grid cell's identity inside a Runner.
type cellKey struct {
	workload string
	scheme   Scheme
	trh      int64
}

// baselineOf is the workload's measured baseline: the cell every other
// cell of the workload is normalized against.
func baselineOf(name string) cellKey { return cellKey{name, SchemeBaseline, 1000} }

// CellKey returns the content-addressed cache key for one grid cell: a
// SHA-256 over the schema version, every ExpConfig field that determines
// simulated numbers (window, cores, seed, calibration, geometry, timing,
// the fault plans), the cell identity, and the per-core workload specs
// with their static request budgets.
//
// The key covers the cell's own fault plan and its workload's baseline
// plan, because the cell is normalized against the baseline cell and
// simulates at the calibrated IPC, and both of those run under the
// baseline plan. A cell the rules don't touch therefore keys exactly like
// its fault-free run, while one whose baseline is faulted never does.
//
// Parallel, Retries and the other wall-clock or recovery knobs are
// excluded: they never change a result. The request budget is recorded
// at nominal IPC 1.0. The calibrated budget scales with the measured
// baseline IPC, which is itself a deterministic function of everything
// already hashed, so the static budget pins it transitively.
func (r *Runner) CellKey(name string, scheme Scheme, trh int64) (string, error) {
	return r.keyAt(SchemaVersion, "cell", cellKey{name, scheme, trh})
}

// ipcKey addresses a workload's calibrated IPC. Calibration is the
// baseline pass at nominal IPC 1.0, so the unit is keyed like the
// baseline cell under its own kind, and covers the baseline plan.
func (r *Runner) ipcKey(name string) (string, error) {
	return r.keyAt(SchemaVersion, "ipc", baselineOf(name))
}

// keyAt derives a unit's key under an explicit schema version (tests
// derive old-generation keys with it to prove a bump invalidates).
//
// The aquakey:hash annotation is the keycoverage analyzer's contract:
// every field of ExpConfig and workload.Spec must be hashed below or
// carry an //aquakey:exclude on its declaration.
//
//aquakey:hash ExpConfig workload.Spec
func (r *Runner) keyAt(version, kind string, k cellKey) (string, error) {
	specs, err := caseSpecs(k.workload)
	if err != nil {
		return "", err
	}
	base := baselineOf(k.workload)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", version)
	fmt.Fprintf(&b, "window=%d cores=%d seed=%#x calibrate=%t\n",
		r.cfg.Window, r.cfg.Cores, r.cfg.Seed, r.cfg.Calibrate)
	fmt.Fprintf(&b, "geom=%+v\n", r.cfg.Geometry)
	fmt.Fprintf(&b, "timing=%+v\n", r.cfg.Timing)
	fmt.Fprintf(&b, "%s=%s/%s/%d\n", kind, k.workload, k.scheme, k.trh)
	fmt.Fprintf(&b, "faults=%+v baseline-faults=%+v\n",
		r.cfg.Faults.PlanFor(k.workload, k.scheme.String(), k.trh),
		r.cfg.Faults.PlanFor(base.workload, base.scheme.String(), base.trh))
	windowInstr := float64(r.cfg.Window) / 1e12 * 3e9
	for i := 0; i < r.cfg.Cores && i < len(specs); i++ {
		sp := specs[i]
		fmt.Fprintf(&b, "core%d spec=%s mpki=%g rows=%d/%d/%d budget=%d\n",
			i, sp.Name, sp.MPKI, sp.Rows166, sp.Rows500, sp.Rows1K,
			int64(windowInstr*sp.MPKI/1000)+16)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// AttachCellCache attaches a content-addressed store: completed cells
// and calibrations are served from it without constructing a System and
// written back to it as they complete. Failed and cancelled units never
// enter the store. Pass nil to detach.
func (r *Runner) AttachCellCache(s *cellcache.Store) { r.store = s }

// CellStats summarizes how cell requests were satisfied. A cell's
// baseline dependency counts as a request of its own; calibration units
// are not cells and are not counted.
type CellStats struct {
	// Requests is the number of cell requests.
	Requests int64
	// CacheHits were served from the attached content-addressed cache.
	CacheHits int64
	// CacheMisses consulted the attached cache and missed.
	CacheMisses int64
	// Simulated cells were actually run.
	Simulated int64
	// Errors is the number of requests that failed.
	Errors int64
	// TraceCaptures counts workload core-streams generated once and
	// packed into the capture/replay tier (tracetier.go), including
	// captures that ran over budget and were served uncached.
	TraceCaptures int64
	// TraceReplays counts core-streams served by replaying a captured
	// trace instead of running the generator — every stream build after
	// a workload's first touch.
	TraceReplays int64
}

// Deduped is the number of requests served from an identical cell
// already resolved in this Runner — the memo or a coalesced in-flight
// execution — rather than from the store or a fresh simulation.
func (s CellStats) Deduped() int64 {
	d := s.Requests - s.CacheHits - s.Simulated - s.Errors
	if d < 0 {
		d = 0
	}
	return d
}

// CellStats returns a snapshot of the Runner's cell-request counters.
func (r *Runner) CellStats() CellStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cellStats
}
