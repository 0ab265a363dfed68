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
// The tier is in-memory only, under a fixed byte budget. A capture that
// would push it past the budget is served once, uncached, and later cells
// capture it again; across processes, cellcache dedupes whole cells, so
// no stream is persisted.

import (
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceBudgetBytes bounds the in-memory packed tier: 1 GiB holds the
// full 64ms four-core window of every SPEC workload at ~8.1 bytes/record
// with room to spare.
const traceBudgetBytes = 1 << 30

// replayStream serves one core's stream from the trace tier, capturing
// it first if the tier does not hold it yet.
func (r *Runner) replayStream(spec workload.Spec, core int, nominal float64, reqs int64) cpu.Stream {
	key := genKey{spec: spec.Name, core: core, nominal: nominal}
	r.mu.Lock()
	if p, ok := r.traceMem[key]; ok {
		r.cellStats.TraceReplays++
		r.mu.Unlock()
		return p.Stream()
	}
	r.mu.Unlock()

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
	// Over budget, the capture is served once, uncached: later cells
	// capture again rather than evict or blow the budget.
	if r.traceBytes+p.Bytes() <= r.traceBudget {
		r.traceMem[key] = p
		r.traceBytes += p.Bytes()
	}
	r.mu.Unlock()
	return p.Stream()
}
