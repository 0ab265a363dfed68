package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/cellcache"
	"repro/internal/dram"
	"repro/internal/flight"
	"repro/internal/sim"
)

// labSpec describes a workload that drives the simulator through
// repro.Lab: which cases and grid cells one pass resolves, at what
// window and width, and whether each pass starts from a fresh on-disk
// cell cache.
type labSpec struct {
	names    []string
	cells    []sim.GridCell
	window   dram.PS
	parallel int
	cache    bool
}

func fullHotSpec() labSpec {
	return labSpec{
		names: []string{"lbm", "gcc"},
		cells: []sim.GridCell{
			{Scheme: repro.SchemeBaseline, TRH: 1000},
			{Scheme: repro.SchemeAquaMemMapped, TRH: 1000},
			{Scheme: repro.SchemeRRS, TRH: 1000},
		},
		window:   64 * dram.Millisecond,
		parallel: 1,
	}
}

func gridColdSpec(nproc int) labSpec {
	return labSpec{
		names:    repro.SPECWorkloads(),
		cells:    repro.PaperGrid(),
		window:   4 * dram.Millisecond,
		parallel: min(2, nproc),
		cache:    true,
	}
}

// cellSpan is one Lab.Run call as the benchmark observed it.
type cellSpan struct {
	key string // workload/scheme/trh
	dur time.Duration
	run sim.WorkloadRun
	err error
}

// labPass is one fresh Lab resolving the spec's grid.
type labPass struct {
	wall  time.Duration
	cpu   float64 // process CPU seconds while the grid resolved
	spans []cellSpan
	cells sim.CellStats
	store cellcache.Stats
}

// labEnv is a built (but unused) Lab plus its cache store.
type labEnv struct {
	lab   *repro.Lab
	store *cellcache.Store
}

// cacheDir is where a caching spec keeps its on-disk cell cache.
func cacheDir(workDir string) string { return filepath.Join(workDir, "cells") }

// reset empties the spec's cache directory, so the next pass starts cold.
func (s labSpec) reset(workDir string) error {
	if !s.cache {
		return nil
	}
	dir := cacheDir(workDir)
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("reset cache dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create cache dir: %w", err)
	}
	return nil
}

// setup builds a Lab for one pass, with a store over the (already reset)
// cache directory when the spec caches: what a user pays before the
// first cell.
func (s labSpec) setup(seed uint64, workDir string) (labEnv, error) {
	lab := repro.NewLab(repro.LabOptions{
		Window:    s.window,
		Workloads: s.names,
		Seed:      seed,
		Parallel:  s.parallel,
	})
	env := labEnv{lab: lab}
	if s.cache {
		st, err := cellcache.New(cacheDir(workDir))
		if err != nil {
			return env, fmt.Errorf("open cell cache: %w", err)
		}
		lab.AttachCache(st)
		env.store = st
	}
	return env, nil
}

// run resolves every (workload, cell) pair of the spec on the env's Lab,
// fanned out exactly as Lab.Precompute does, timing each Lab.Run call.
// Every pair is attempted even when some fail.
func (s labSpec) run(env labEnv) labPass {
	spans := make([]cellSpan, len(s.names)*len(s.cells))
	t0, c0 := time.Now(), cpuSeconds()
	_ = flight.ForEachCtx(context.Background(), len(spans), s.parallel, func(k int) error {
		name, c := s.names[k/len(s.cells)], s.cells[k%len(s.cells)]
		start := time.Now()
		r, err := env.lab.Run(name, c.Scheme, c.TRH)
		spans[k] = cellSpan{key: cellName(name, c.Scheme, c.TRH), dur: time.Since(start), run: r, err: err}
		return nil
	})
	p := labPass{wall: time.Since(t0), cpu: cpuSeconds() - c0, spans: spans, cells: env.lab.CellStats()}
	if env.store != nil {
		p.store = env.store.Stats()
	}
	return p
}

func cellName(name string, scheme repro.Scheme, trh int64) string {
	return fmt.Sprintf("%s/%s/%d", name, scheme, trh)
}

// digest hashes a cell's deterministic outputs: normalized IPC and the
// simulated request, latency, lookup, migration and power figures. Any
// change to simulated behaviour changes it; host speed never does.
func digest(r sim.WorkloadRun) string {
	res := r.Result
	m := res.MitStats
	c := res.CtrlStats
	s := fmt.Sprintf("%s/%s/%d ipc=%x norm=%x t=%d instr=%d req=%d lat=%d/%d ref=%d mit=%d mig=%d ev=%d vr=%d busy=%d thr=%d tbl=%d look=%v pow=%x",
		r.Workload, r.Scheme, r.TRH, math.Float64bits(res.IPC), math.Float64bits(r.NormIPC),
		res.SimTime, res.Instr, res.Requests, c.TotalLatency, c.MaxLatency, c.Refreshes,
		m.Mitigations, m.RowMigrations, m.Evictions, m.VictimRefreshes, m.ChannelBusy,
		m.ThrottleDelay, m.TableDRAMAccesses, m.Lookups, math.Float64bits(res.DRAMPowerMW))
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// checkPass validates one pass and returns the number of failed cells
// with a description of the first failure. A cell fails when Lab.Run
// errors, when its digest differs from the committed default-seed digest
// (want non-nil) or from the same cell in an earlier pass of this run
// (seen), or when it breaks a seed-independent invariant: every scheme of
// a workload executes the same fixed instruction budget, so issues the
// same request count, and the baseline normalizes to exactly 1.
func checkPass(p labPass, want map[string]string, seen map[string]string) (int, string) {
	failed, first := 0, ""
	fail := func(format string, a ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf(format, a...)
		}
	}
	reqs := make(map[string]int64)
	for _, sp := range p.spans {
		if sp.err != nil {
			fail("%s: %v", sp.key, sp.err)
			continue
		}
		d := digest(sp.run)
		if w, ok := want[sp.key]; want != nil && (!ok || w != d) {
			fail("%s: digest %s, committed %q", sp.key, d, w)
			continue
		}
		if prev, ok := seen[sp.key]; ok && prev != d {
			fail("%s: digest %s differs from an earlier pass (%s)", sp.key, d, prev)
			continue
		}
		seen[sp.key] = d
		r := sp.run
		if n, ok := reqs[r.Workload]; ok && n != r.Result.Requests {
			fail("%s: %d requests, other schemes issued %d", sp.key, r.Result.Requests, n)
			continue
		}
		reqs[r.Workload] = r.Result.Requests
		if r.Scheme == repro.SchemeBaseline && r.NormIPC != 1 {
			fail("%s: baseline NormIPC %v", sp.key, r.NormIPC)
			continue
		}
		if r.Result.Requests <= 0 || !(r.NormIPC > 0) || r.Result.FaultStats.Injected != 0 {
			fail("%s: implausible result (requests %d, norm %v)", sp.key, r.Result.Requests, r.NormIPC)
		}
	}
	return failed, first
}

// requests sums Result.Requests over a pass's returned cells.
func (p labPass) requests() int64 {
	var n int64
	for _, sp := range p.spans {
		if sp.err == nil {
			n += sp.run.Result.Requests
		}
	}
	return n
}

// latencies returns each Lab.Run call's duration, +Inf for a failed one.
func (p labPass) latencies() []float64 {
	lat := make([]float64, len(p.spans))
	for i, sp := range p.spans {
		lat[i] = sp.dur.Seconds()
		if sp.err != nil {
			lat[i] = inf
		}
	}
	return lat
}
