package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/cellcache"
	"repro/internal/cpu"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/mitigation"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ExpConfig parameterizes the figure-regeneration experiments.
type ExpConfig struct {
	// Window is the simulated measurement window (default one refresh
	// window, 64ms, matching the paper's per-64ms metrics).
	Window dram.PS
	// Seed for workload and scheme randomization.
	Seed uint64
	// Calibrate runs a baseline pass first and regenerates streams with
	// the measured IPC so hot rows hit their Table II activation targets
	// within real time (default true; see DESIGN.md).
	Calibrate bool
	// Parallel bounds how many grid cells simulate concurrently (0 =
	// GOMAXPROCS, 1 = serial). Each cell builds a fully isolated system,
	// and results are collected by cell index, so the value changes
	// wall-clock only — never the numbers (see DESIGN.md "Concurrency
	// model").
	//aquakey:exclude concurrency width changes wall-clock only; results are collected by index
	Parallel int
	// Faults maps grid cells to injected fault plans (see fault.ParseRules
	// for the grammar). Nil means no faults anywhere. Cell-level kinds
	// ("panic", "transient") fire before the simulation is built; hardware
	// kinds are threaded through the system layers. Every key hashes the
	// plans its unit depends on (see CellKey).
	Faults *fault.Rules
	// Retries bounds re-attempts for transiently failing cells (default 2
	// re-attempts after the first try; negative disables retry). Transient
	// fault arms are dropped on retry attempts, so an injected transient
	// failure clears exactly the way a real one would.
	//aquakey:exclude retry count changes recovery behaviour only; a cell that succeeds yields the same bytes on any attempt
	Retries int
	// OnCellStart, when set, is called at the start of every cell compute
	// attempt, the baseline cell's included (after memo/cache resolution —
	// served cells never fire it; calibration is not a cell and never
	// does). The experiment farm hooks it to count compute opportunities
	// for harness-level fault injection (fault.WorkerKill); it must not
	// mutate anything the simulation reads.
	//aquakey:exclude observation hook; fires only on cells that actually simulate and cannot change their results
	OnCellStart func(workload string, scheme Scheme, trh int64)
	// DisableTraceReplay turns off the record-once/replay-many stream
	// tier (see tracetier.go): every cell regenerates its workload
	// streams from the generator instead of replaying a captured trace.
	// Replay is byte-identical to generation — captures carry addresses
	// and instruction gaps, never timestamps — so the flag changes
	// wall-clock only; it exists for the replay-vs-generate equivalence
	// gate (make trace-smoke).
	//aquakey:exclude replay is byte-identical to generation (equivalence gate: make trace-smoke); the tier changes wall-clock only
	DisableTraceReplay bool
}

func (e *ExpConfig) fillDefaults() {
	if e.Window == 0 {
		e.Window = 64 * dram.Millisecond
	}
	if e.Seed == 0 {
		e.Seed = 0x41515541 // "AQUA"
	}
	if e.Parallel <= 0 {
		e.Parallel = runtime.GOMAXPROCS(0)
	}
	if e.Retries == 0 {
		e.Retries = 2
	}
	if e.Retries < 0 {
		e.Retries = 0
	}
}

// validate rejects configurations no cell could run under. It operates on
// an already-defaulted config (NewRunner calls fillDefaults first).
func (e *ExpConfig) validate() error {
	if e.Window < 0 {
		return fmt.Errorf("sim: negative window %d", e.Window)
	}
	return nil
}

// Default ExpConfig calibration flag handling: zero value means enabled.
// (Use NoCalibration to disable in fast tests.)

// WorkloadRun is one (workload, scheme) measurement.
type WorkloadRun struct {
	Workload string
	Scheme   Scheme
	TRH      int64
	Result   Result
	// NormIPC is IPC relative to the unprotected baseline of the same
	// workload (1.0 = no slowdown).
	NormIPC float64
}

// Runner executes workload x scheme grids with shared calibration. A
// Runner is safe for concurrent use: every cell and every workload's
// calibration resolves through one memoized, singleflight-coalesced,
// content-addressed path (resolve.go), so concurrent cells wanting the
// same workload's baseline block on one shared pass instead of repeating
// it, while each cell's own simulation runs on a fully isolated system
// build.
type Runner struct {
	cfg ExpConfig
	// region is the software-visible address region of the baseline
	// rank, shared by every stream build.
	region workload.Region
	// initErr records a construction failure (a negative window). A
	// Runner with initErr set is inert: every cell it is asked to run
	// fails with a CellError wrapping initErr instead of crashing the
	// process.
	initErr error
	// retryBackoff, when set, is called before re-attempt n (1-based) of a
	// transiently failing cell. Nil means retry immediately; tests hook it
	// to count attempts. Deliberately not time-based by default — the
	// simulator is deterministic and wall-clock sleeps are banned.
	retryBackoff func(attempt int)
	// store, when attached, is the content-addressed result store (see
	// cellkey.go): completed units are served from it across processes
	// and written back to it. Nil means no store.
	store *cellcache.Store

	// cells and ipcs are the two kinds of shared work (resolve.go): grid
	// cells, keyed by identity, and calibrated IPCs, keyed by workload.
	cells units[cellKey, WorkloadRun]
	ipcs  units[string, calibration]

	mu sync.Mutex
	// genCache shares workload generators across grid cells. A generator
	// is a pure function of (spec, core, nominal IPC) under the Runner's
	// fixed region/seed/params and is immutable once built, so every cell
	// of a workload can draw fresh streams from one shared instance
	// instead of re-deriving the hot-row placement and background set.
	genCache map[genKey]*workload.Generator // guarded by mu
	// traceMem is the in-memory tier of the capture/replay layer
	// (tracetier.go): packed per-core request traces keyed like genCache,
	// replayed by every cell sharing the workload. traceBytes tracks its
	// footprint against traceBudget, which is traceBudgetBytes except in
	// the over-budget fallback test.
	traceMem    map[genKey]*trace.Packed // guarded by mu
	traceBytes  int64                    // guarded by mu
	traceBudget int64
	// cellStats counts how cell requests were satisfied.
	cellStats CellStats // guarded by mu
}

type genKey struct {
	spec    string
	core    int
	nominal float64
}

// NewRunner builds a Runner. It never panics: an invalid configuration
// yields an inert Runner whose cells all fail with a CellError wrapping
// the construction error (use NewRunnerE or Err to see it directly).
func NewRunner(cfg ExpConfig) *Runner {
	cfg.fillDefaults()
	return &Runner{
		cfg:         cfg,
		region:      VisibleRegion(Config{}),
		initErr:     cfg.validate(),
		genCache:    make(map[genKey]*workload.Generator),
		traceMem:    make(map[genKey]*trace.Packed),
		traceBudget: traceBudgetBytes,
	}
}

// NewRunnerE is NewRunner with the construction error surfaced.
func NewRunnerE(cfg ExpConfig) (*Runner, error) {
	r := NewRunner(cfg)
	return r, r.initErr
}

// Err reports the construction error, if any.
func (r *Runner) Err() error { return r.initErr }

// CellError wraps one grid cell's failure with the cell's identity, so a
// broken cell reads as "cell xz/rrs/1000: ..." in the failure summary
// instead of aborting the whole run.
type CellError struct {
	Workload string
	Scheme   Scheme
	TRH      int64
	// Err is the underlying failure; a recovered panic arrives as a
	// *flight.PanicError.
	Err error
	// Stack is the goroutine stack captured at a recovered panic (nil for
	// ordinary errors).
	Stack []byte
}

// Error implements error.
func (c *CellError) Error() string {
	return fmt.Sprintf("cell %s/%s/%d: %v", c.Workload, c.Scheme, c.TRH, c.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (c *CellError) Unwrap() error { return c.Err }

// GridError aggregates every failed cell of a grid run, in grid order.
// RunGrid returns it alongside the partial grid, which still holds every
// healthy cell's result.
type GridError struct {
	Cells []*CellError
}

// Error implements error.
func (g *GridError) Error() string {
	if len(g.Cells) == 1 {
		return g.Cells[0].Error()
	}
	return fmt.Sprintf("%d cells failed (first: %v)", len(g.Cells), g.Cells[0])
}

// Config returns the effective experiment configuration.
func (r *Runner) Config() ExpConfig { return r.cfg }

// caseSpecs returns per-core specs for a named case: a rate workload
// (same spec on every core) or a mix.
func caseSpecs(name string) ([]workload.Spec, error) {
	if spec, ok := workload.ByName(name); ok {
		return []workload.Spec{spec, spec, spec, spec}, nil
	}
	mixes := workload.Mixes()
	for i, m := range mixes {
		if workload.MixName(i, m) == name || fmt.Sprintf("mix%02d", i+1) == name {
			return m[:], nil
		}
	}
	return nil, fmt.Errorf("sim: unknown workload %q", name)
}

// AllCaseNames returns the 34 workload names: 18 SPEC + 16 mixes.
func AllCaseNames() []string {
	var names []string
	for _, s := range workload.SPEC17() {
		names = append(names, s.Name)
	}
	for i := range workload.Mixes() {
		names = append(names, fmt.Sprintf("mix%02d", i+1))
	}
	return names
}

// SPECCaseNames returns the 18 SPEC workload names.
func SPECCaseNames() []string {
	var names []string
	for _, s := range workload.SPEC17() {
		names = append(names, s.Name)
	}
	return names
}

// streamsFor builds per-core streams for the case with the given nominal
// IPC. Stream lengths encode a fixed instruction budget — the paper's
// methodology — so a slowed-down scheme executes the same work over a
// longer simulated time, and per-64ms metrics are rate-normalized.
func (r *Runner) streamsFor(name string, nominalIPC float64) ([]cpu.Stream, error) {
	specs, err := caseSpecs(name)
	if err != nil {
		return nil, err
	}
	out := make([]cpu.Stream, cores)
	for i, spec := range specs {
		reqs := requestBudget(r.cfg.Window, nominalIPC, spec.MPKI)
		if r.cfg.DisableTraceReplay {
			gen := r.generator(spec, i, nominalIPC)
			out[i] = gen.Stream(reqs, r.cfg.Seed+uint64(i)*7919)
			continue
		}
		out[i] = r.replayStream(spec, i, nominalIPC, reqs)
	}
	return out, nil
}

// requestBudget is one core's request count for a window of simulated
// time at the given IPC: the window's instruction budget at the core
// clock, converted to requests through the workload's MPKI, plus a floor
// of 16 so that a near-idle workload still issues.
func requestBudget(window dram.PS, ipc, mpki float64) int64 {
	return int64(float64(window)/1e12*cpu.FreqHz*ipc*mpki/1000) + 16
}

// generator returns the shared generator for (spec, core, nominal IPC),
// building it on first use. Generators are immutable after construction
// and streams carry their own RNG state, so sharing one across concurrent
// cells cannot couple their results.
func (r *Runner) generator(spec workload.Spec, coreIdx int, nominalIPC float64) *workload.Generator {
	key := genKey{spec: spec.Name, core: coreIdx, nominal: nominalIPC}
	r.mu.Lock()
	gen, ok := r.genCache[key]
	r.mu.Unlock()
	if ok {
		return gen
	}
	params := workload.Params{
		EpochLength: dram.DDR4().TREFW,
		NominalIPC:  nominalIPC,
		Cores:       cores,
	}
	gen = workload.NewGenerator(spec, r.region, coreIdx, r.cfg.Seed, params)
	r.mu.Lock()
	// A concurrent builder may have won the race; keep the first instance
	// (both are identical by construction).
	if prior, ok := r.genCache[key]; ok {
		gen = prior
	} else {
		r.genCache[key] = gen
	}
	r.mu.Unlock()
	return gen
}

// calibration is a workload's calibrated IPC: the IPC of its baseline
// pass at nominal IPC 1.0, clamped to [0.01, 2]. It is stored as a JSON
// object like every cell.
type calibration struct {
	Workload string
	IPC      float64
}

// nominalIPC returns the IPC every cell of a workload simulates at: the
// calibrated IPC when calibration is on, else 1.0. The calibration is a
// unit of its own, resolved like a cell and protected like one.
func (r *Runner) nominalIPC(ctx context.Context, name string) (float64, error) {
	if !r.cfg.Calibrate {
		return 1, nil
	}
	c, err := r.ipcs.resolve(ctx, r, name, work[calibration]{
		hash:  func() (string, error) { return r.ipcKey(name) },
		valid: func(c calibration) bool { return c.Workload == name },
		compute: func() (calibration, error) {
			c := calibration{Workload: name}
			err := r.protect(baselineOf(name), func(attempt int) error {
				res, err := r.runOnce(ctx, name, SchemeBaseline, 1000, 1.0, Config{}, attempt)
				c.IPC = min(max(res.IPC, 0.01), 2)
				return err
			})
			return c, err
		},
	})
	return c.IPC, err
}

// injectorFor arms the cell's injected faults. Cell-level kinds ("panic",
// "transient") fire here, before the system is built — they model harness
// failures rather than hardware ones. Hardware kinds ride the returned
// injector into the system layers. Attempt > 0 drops transient arms, so a
// retried cell recovers exactly the way a real transient failure would.
func (r *Runner) injectorFor(name string, scheme Scheme, trh int64, attempt int) (*fault.Injector, error) {
	plan := r.cfg.Faults.PlanFor(name, scheme.String(), trh)
	if plan.Empty() {
		return nil, nil
	}
	seed := rng.Derive(r.cfg.Seed, rng.HashString(name), rng.HashString(scheme.String()), uint64(trh), 0xFA17)
	inj := fault.NewInjector(seed, plan, attempt)
	if inj.Fire(fault.CellPanic, 0) {
		panic(fmt.Sprintf("injected panic in cell %s/%s/%d", name, scheme, trh))
	}
	if inj.Fire(fault.CellTransient, 0) {
		return nil, fault.Transient(fmt.Errorf("injected transient failure in cell %s/%s/%d", name, scheme, trh))
	}
	return inj, nil
}

// runOnce builds and runs one system with structural overrides (bloom and
// FPT-Cache sizing, proactive drain) merged in.
func (r *Runner) runOnce(ctx context.Context, name string, scheme Scheme, trh int64, nominalIPC float64, overrides Config, attempt int) (Result, error) {
	streams, err := r.streamsFor(name, nominalIPC)
	if err != nil {
		return Result{}, err
	}
	inj, err := r.injectorFor(name, scheme, trh, attempt)
	if err != nil {
		return Result{}, err
	}
	cfg := Config{
		TRH:             trh,
		Scheme:          scheme,
		Seed:            r.cfg.Seed,
		BloomGroupSize:  overrides.BloomGroupSize,
		FPTCacheEntries: overrides.FPTCacheEntries,
		ProactiveDrain:  overrides.ProactiveDrain,
		Faults:          inj,
	}
	sys, err := NewSystemE(cfg, streams)
	if err != nil {
		return Result{}, err
	}
	return sys.RunCtx(ctx, 0)
}

// protect runs fn with panic isolation and bounded retry, converting any
// failure into a *CellError for cell k.
func (r *Runner) protect(k cellKey, fn func(attempt int) error) error {
	if err := flight.Retry(r.cfg.Retries+1, r.retryBackoff, fn); err != nil {
		return cellError(k, err)
	}
	return nil
}

// cellError attributes err to cell k. Cancellation passes through
// untouched so callers can tell "the run was stopped" from "this cell is
// broken"; a failure already attributed to k is kept as is; anything
// else — a failed dependency included — is wrapped with k's identity
// and, for a recovered panic, the stack.
func cellError(k cellKey, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	var ce *CellError
	if errors.As(err, &ce) && (cellKey{ce.Workload, ce.Scheme, ce.TRH}) == k {
		return err
	}
	ce = &CellError{Workload: k.workload, Scheme: k.scheme, TRH: k.trh, Err: err}
	var pe *flight.PanicError
	if errors.As(err, &pe) {
		ce.Stack = pe.Stack
	}
	return ce
}

// resolveCell serves cell k through the resolution path (resolve.go).
func (r *Runner) resolveCell(ctx context.Context, k cellKey) (WorkloadRun, error) {
	return r.cells.resolve(ctx, r, k, work[WorkloadRun]{
		cell: true,
		hash: func() (string, error) { return r.CellKey(k.workload, k.scheme, k.trh) },
		valid: func(run WorkloadRun) bool {
			return run.Workload == k.workload && run.Scheme == k.scheme && run.TRH == k.trh
		},
		compute: func() (WorkloadRun, error) {
			return r.measure(ctx, k, Config{}, k != baselineOf(k.workload))
		},
	})
}

// measure runs cell k's own pass, with structural overrides merged in,
// at the workload's nominal IPC. With normalize set, the result is
// normalized against the workload's baseline cell; the baseline cell
// itself measures without it — it is the baseline, and resolving itself
// as a dependency would wait on its own singleflight.
//
// Dependencies resolve before, not inside, the retried pass: each is
// protected on its own, so a failed dependency is reported once and not
// retried again by every cell that needs it.
func (r *Runner) measure(ctx context.Context, k cellKey, overrides Config, normalize bool) (WorkloadRun, error) {
	nominal, err := r.nominalIPC(ctx, k.workload)
	if err != nil {
		return WorkloadRun{}, cellError(k, err)
	}
	var base Result
	if normalize {
		b, err := r.resolveCell(ctx, baselineOf(k.workload))
		if err != nil {
			return WorkloadRun{}, cellError(k, err)
		}
		base = b.Result
	}
	run := WorkloadRun{Workload: k.workload, Scheme: k.scheme, TRH: k.trh, NormIPC: 1}
	err = r.protect(k, func(attempt int) error {
		if r.cfg.OnCellStart != nil {
			r.cfg.OnCellStart(k.workload, k.scheme, k.trh)
		}
		res, err := r.runOnce(ctx, k.workload, k.scheme, k.trh, nominal, overrides, attempt)
		if err != nil {
			return err
		}
		run.Result = res
		if base.IPC > 0 {
			run.NormIPC = res.IPC / base.IPC
		}
		return nil
	})
	if err != nil {
		return WorkloadRun{}, err
	}
	return run, nil
}

// Completed lists every cell this Runner has resolved successfully —
// simulated, served from the store, or coalesced — in canonical
// workload/scheme/threshold order.
func (r *Runner) Completed() []WorkloadRun {
	return r.cells.sorted(func(a, b WorkloadRun) int {
		return cmp.Or(strings.Compare(a.Workload, b.Workload), cmp.Compare(a.Scheme, b.Scheme), cmp.Compare(a.TRH, b.TRH))
	})
}

// RunVariant measures one workload under a scheme with structural
// overrides, normalized against the unmodified baseline.
func (r *Runner) RunVariant(name string, scheme Scheme, trh int64, overrides Config) (WorkloadRun, error) {
	return r.RunVariantCtx(context.Background(), name, scheme, trh, overrides)
}

// RunVariantCtx is RunVariant with cancellation, panic isolation and
// retry. Variant runs are never memoized or stored: the structural
// overrides are not part of the cell key. Their baseline and calibration
// dependencies resolve like any cell's.
func (r *Runner) RunVariantCtx(ctx context.Context, name string, scheme Scheme, trh int64, overrides Config) (WorkloadRun, error) {
	k := cellKey{name, scheme, trh}
	if r.initErr != nil {
		return WorkloadRun{}, cellError(k, r.initErr)
	}
	return r.measure(ctx, k, overrides, true)
}

// Run measures one workload under one scheme at the given threshold,
// returning the scheme result and the normalized IPC vs the baseline.
func (r *Runner) Run(name string, scheme Scheme, trh int64) (WorkloadRun, error) {
	return r.RunCtx(context.Background(), name, scheme, trh)
}

// RunCtx is Run with cancellation, panic isolation, bounded retry for
// transient failures, and result caching. A failure comes back as a
// *CellError (identity + cause + panic stack); cancellation comes back
// as the context's error, unwrapped.
//
// The cell resolves through the Runner's one path (resolve.go): memo,
// coalesced in-flight execution, the content-addressed store, and only
// then a fresh simulation. Faulted cells take the
// same path — their keys hash their fault plans — and failed (including
// cancelled) cells are never stored anywhere.
//
//detertaint:root
func (r *Runner) RunCtx(ctx context.Context, name string, scheme Scheme, trh int64) (WorkloadRun, error) {
	k := cellKey{name, scheme, trh}
	if r.initErr != nil {
		return WorkloadRun{}, cellError(k, r.initErr)
	}
	return r.resolveCell(ctx, k)
}

// RunGrid measures each workload under each (scheme, trh) pair, reusing
// per-workload baselines. Results are grouped by workload in input order.
type GridCell struct {
	Scheme Scheme
	TRH    int64
}

// GridResult holds one workload's row of the grid.
type GridResult struct {
	Workload string
	Baseline Result
	Cells    []WorkloadRun
}

// RunGrid runs the full grid: every (workload, cell) pair fans out to
// the worker pool (cfg.Parallel wide), each on its own isolated system
// build, with the per-workload calibration and baseline deduplicated
// across concurrent cells. Results land in preallocated slots addressed
// by (workload index, cell index), so the returned grid — and anything
// rendered from it — is byte-identical to a serial run regardless of
// completion order.
func (r *Runner) RunGrid(names []string, cells []GridCell) ([]GridResult, error) {
	return r.RunGridCtx(context.Background(), names, cells)
}

// RunGridCtx is RunGrid with cancellation and per-cell fault isolation. A
// failing cell does not abort the fan-out: its failure is recorded and the
// remaining cells run to completion. The partial grid is always returned;
// when any cells failed, the error is a *GridError listing them in grid
// order. When the context is cancelled the grid stops promptly and the
// context's error is returned with whatever completed so far.
//
//detertaint:root
func (r *Runner) RunGridCtx(ctx context.Context, names []string, cells []GridCell) ([]GridResult, error) {
	out := make([]GridResult, len(names))
	for i, name := range names {
		out[i] = GridResult{Workload: name, Cells: make([]WorkloadRun, len(cells))}
	}
	// One task per cell, plus one per workload so baselines are resolved
	// (and recorded in out[i].Baseline) even for an empty cell list.
	perName := len(cells) + 1
	cellErrs := make([]*CellError, len(names)*perName)
	err := flight.ForEachCtx(ctx, len(names)*perName, r.cfg.Parallel, func(k int) error {
		i, j := k/perName, k%perName
		scheme, trh := SchemeBaseline, int64(1000)
		if j < len(cells) {
			scheme, trh = cells[j].Scheme, cells[j].TRH
		}
		run, err := r.RunCtx(ctx, names[i], scheme, trh)
		if err != nil {
			var ce *CellError
			if errors.As(err, &ce) {
				// Isolate the broken cell; the rest of the grid proceeds.
				cellErrs[k] = ce
				return nil
			}
			// Cancellation (or a non-cell failure): abort the fan-out.
			return err
		}
		if j == len(cells) {
			out[i].Baseline = run.Result
		} else {
			out[i].Cells[j] = run
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	var failed []*CellError
	for _, ce := range cellErrs {
		if ce != nil {
			failed = append(failed, ce)
		}
	}
	if len(failed) > 0 {
		return out, &GridError{Cells: failed}
	}
	return out, nil
}

// RowTierCounts measures the Table II characterization on a baseline run:
// the number of rows whose activation count within the window reaches each
// tier (scaled to the 64ms epoch when the window differs).
func (r *Runner) RowTierCounts(name string, tiers []int64) (map[int64]int, error) {
	if r.initErr != nil {
		return nil, r.initErr
	}
	nominal, err := r.nominalIPC(context.Background(), name)
	if err != nil {
		return nil, err
	}
	streams, err := r.streamsFor(name, nominal)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystemE(Config{TRH: 1000, Scheme: SchemeBaseline, Seed: r.cfg.Seed}, streams)
	if err != nil {
		return nil, err
	}
	// The baseline system has no other activation listener, so this one
	// takes the rank's single-listener fast path.
	acts := make([]uint32, sys.Cfg.Geometry.Rows())
	sys.Rank.Listen(func(row dram.Row, _ dram.PS) { acts[row]++ })
	res := sys.Run(0)

	scale := float64(res.SimTime) / float64(64*dram.Millisecond)
	if scale == 0 {
		scale = 1
	}
	counts := make(map[int64]int, len(tiers))
	for _, n := range acts {
		for _, tier := range tiers {
			if float64(n) >= float64(tier)*scale {
				counts[tier]++
			}
		}
	}
	sortTiers(tiers)
	return counts, nil
}

func sortTiers(tiers []int64) {
	sort.Slice(tiers, func(i, j int) bool { return tiers[i] < tiers[j] })
}

// LookupBreakdown summarizes Translate resolutions as fractions (Figure
// 10's four categories).
type LookupBreakdown struct {
	BloomFiltered float64
	CacheHit      float64
	Singleton     float64
	DRAM          float64
}

// BreakdownOf extracts the Figure 10 fractions from a result.
func BreakdownOf(res Result) LookupBreakdown {
	s := res.MitStats
	total := float64(s.Lookups[mitigation.LookupBloomFiltered] +
		s.Lookups[mitigation.LookupCacheHit] +
		s.Lookups[mitigation.LookupSingleton] +
		s.Lookups[mitigation.LookupDRAM])
	if total == 0 {
		return LookupBreakdown{}
	}
	return LookupBreakdown{
		BloomFiltered: float64(s.Lookups[mitigation.LookupBloomFiltered]) / total,
		CacheHit:      float64(s.Lookups[mitigation.LookupCacheHit]) / total,
		Singleton:     float64(s.Lookups[mitigation.LookupSingleton]) / total,
		DRAM:          float64(s.Lookups[mitigation.LookupDRAM]) / total,
	}
}
