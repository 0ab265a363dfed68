package sim

// Record-once/replay-many workload streams (see DESIGN.md "Trace capture
// & replay"). A workload core-stream is a pure function of (spec, core,
// nominal IPC) under the Runner's fixed region/seed/window — it carries
// addresses and instruction gaps, never timestamps — so one capture
// serves every grid cell sharing the workload regardless of scheme or
// threshold. The first cell to touch a stream runs the generator once
// and packs the records; every cell (including that first one) then
// replays the packed trace, which is several times cheaper per record
// than generation and byte-identical to it (pinned by the golden tests
// and the make trace-smoke equivalence gate).
//
// Tiers: an in-memory packed tier under a byte budget; past the budget,
// captures spill as v2 trace files under the attached cell cache's
// directory and replay from the memory mapping with bounded residency.
// Spilled files are content-addressed over everything the generated
// stream depends on, so a later process replays them without paying for
// generation at all, and a stale file simply lives under a name no
// runner ever asks for.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// defaultTraceBudget bounds the in-memory packed tier when the config
// does not say otherwise: 1 GiB holds the full 64ms four-core window of
// every SPEC workload at ~8.1 bytes/record with room to spare.
const defaultTraceBudget = 1 << 30

// traceBudget returns the effective in-memory capture budget.
func (r *Runner) traceBudget() int64 {
	switch b := r.cfg.TraceBudgetBytes; {
	case b == 0:
		return defaultTraceBudget
	case b < 0:
		return math.MaxInt64
	default:
		return b
	}
}

// replayStream serves one core's stream from the trace tier, capturing
// it first if no tier holds it yet.
func (r *Runner) replayStream(spec workload.Spec, core int, nominal float64, reqs int64) cpu.Stream {
	key := genKey{spec: spec.Name, core: core, nominal: nominal}
	r.mu.Lock()
	if p, ok := r.traceMem[key]; ok {
		r.cellStats.TraceReplays++
		r.mu.Unlock()
		return p.Stream()
	}
	if m, ok := r.traceDisk[key]; ok {
		r.cellStats.TraceReplays++
		r.cellStats.TraceDiskHits++
		r.mu.Unlock()
		return m.Stream(0)
	}
	r.mu.Unlock()

	// Cross-process probe: a spilled capture from an earlier run replays
	// without paying for generation at all. Verify eagerly — a corrupt
	// block discovered lazily mid-simulation could only truncate the
	// stream silently.
	if path := r.tracePath(spec, core, nominal, reqs); path != "" {
		if m, err := trace.OpenFile(path); err == nil {
			if m.Header().Records == reqs && m.Verify() == nil {
				return r.adoptDisk(key, m, true)
			}
			m.Close()
		}
	}

	// Capture: run the generator once, packing its records.
	gen := r.generator(spec, core, nominal)
	p := trace.PackStream(gen.Stream(reqs, r.cfg.Seed+uint64(core)*7919), reqs)

	r.mu.Lock()
	if prior, ok := r.traceMem[key]; ok {
		// Lost the capture race; replay the winner (identical by
		// construction).
		r.cellStats.TraceReplays++
		r.mu.Unlock()
		return prior.Stream()
	}
	r.cellStats.TraceCaptures++
	if r.traceBytes+p.Bytes() <= r.traceBudget() {
		r.traceMem[key] = p
		r.traceBytes += p.Bytes()
		r.mu.Unlock()
		return p.Stream()
	}
	r.mu.Unlock()

	// Over budget: spill to the cell cache's disk tier and replay from
	// the mapping, keeping residency bounded. With no disk tier (or a
	// failed write) the capture is served uncached — later cells capture
	// again rather than blow the budget.
	if path := r.tracePath(spec, core, nominal, reqs); path != "" {
		set := &trace.Set{Cores: []*trace.Packed{p}}
		if err := trace.WriteSetFile(path, set, trace.DefaultBlockTarget); err == nil {
			if m, err := trace.OpenFile(path); err == nil {
				return r.adoptDisk(key, m, false)
			}
		}
	}
	return p.Stream()
}

// adoptDisk installs a verified mapped trace into the disk tier
// (keep-first on a concurrent race) and returns a replay cursor. hit
// marks a stream served from an existing spill — a capture that just
// spilled its own records is already counted as a capture, not a replay.
func (r *Runner) adoptDisk(key genKey, m *trace.MappedSet, hit bool) cpu.Stream {
	var stale *trace.MappedSet
	r.mu.Lock()
	if prior, ok := r.traceDisk[key]; ok {
		// Lost the install race; replay the winner's mapping.
		stale, m = m, prior
	} else {
		r.traceDisk[key] = m
	}
	if hit {
		r.cellStats.TraceReplays++
		r.cellStats.TraceDiskHits++
	}
	r.mu.Unlock()
	if stale != nil {
		stale.Close()
	}
	return m.Stream(0)
}

// tracePath returns the spill path for one captured core-stream, "" when
// no disk tier is attached. The name hashes everything the generated
// stream depends on — schema version, window, cores, seed, geometry,
// timing, the spec, the core index, the calibrated nominal IPC, and the
// request budget — mirroring CellKey's contract one level down.
func (r *Runner) tracePath(spec workload.Spec, core int, nominal float64, reqs int64) string {
	dir := r.store.Dir()
	if dir == "" {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s trace-v2\n", SchemaVersion)
	fmt.Fprintf(&b, "window=%d cores=%d seed=%#x\n", r.cfg.Window, r.cfg.Cores, r.cfg.Seed)
	fmt.Fprintf(&b, "geom=%+v\n", r.cfg.Geometry)
	fmt.Fprintf(&b, "timing=%+v\n", r.cfg.Timing)
	fmt.Fprintf(&b, "spec=%s mpki=%g rows=%d/%d/%d\n",
		spec.Name, spec.MPKI, spec.Rows166, spec.Rows500, spec.Rows1K)
	fmt.Fprintf(&b, "core=%d nominal=%x reqs=%d\n", core, math.Float64bits(nominal), reqs)
	sum := sha256.Sum256([]byte(b.String()))
	sub := filepath.Join(dir, "traces")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return ""
	}
	return filepath.Join(sub, hex.EncodeToString(sum[:16])+".aqt2")
}
