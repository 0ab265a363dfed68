package main

import (
	"flag"
	"fmt"
	"testing"

	"repro"
	"repro/internal/cellcache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/farm"
	"repro/internal/mitigation"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/workload"
)

// layers are the packages CPU self time is reported for, in output
// order; see layerOf for the folding.
var layers = []string{
	"dram", "memctrl", "core", "tracker", "rrs", "cpu", "event", "rng", "bloom", "sramcache",
	"workload", "trace", "sim", "flight", "cellcache", "farm", "mitigation", "blockhammer",
	"vrefresh", "repro", "runtime", "other",
}

// schemes are the grid schemes cell spans are reported for.
var schemes = []repro.Scheme{
	repro.SchemeBaseline, repro.SchemeAquaSRAM, repro.SchemeAquaMemMapped,
	repro.SchemeRRS, repro.SchemeBlockhammer, repro.SchemeVictimRefresh,
}

// rankCounts are DRAM-rank counters, which sim.Result does not carry;
// the traced run gets them by replaying its cells on systems it builds
// itself (see replicate).
type rankCounts struct {
	activates, rowHits, accesses int64
}

// replicate rebuilds each returned cell as a sim.System from the same
// public pieces the Runner uses — the calibrated nominal IPC, per-core
// generator streams sized to the window's instruction budget, the
// scheme's system config — runs it, checks that it reproduces the Lab's
// result exactly, and sums the rank counters. It returns the number of
// cells that did not reproduce.
func replicate(runs []sim.WorkloadRun, window dram.PS, seed uint64) (rankCounts, int) {
	region := sim.VisibleRegion(sim.Config{})
	timing := dram.DDR4()
	nominal := make(map[string]float64)
	var rc rankCounts
	mismatches := 0
	build := func(spec workload.Spec, scheme repro.Scheme, trh int64, ipc float64) *sim.System {
		windowInstr := float64(window) / 1e12 * 3e9 * ipc
		reqs := int64(windowInstr*spec.MPKI/1000) + 16
		streams := make([]cpu.Stream, 4)
		for i := range streams {
			gen := workload.NewGenerator(spec, region, i, seed, workload.Params{
				EpochLength: timing.TREFW, NominalIPC: ipc, Cores: 4,
			})
			streams[i] = gen.Stream(reqs, seed+uint64(i)*7919)
		}
		return sim.NewSystem(sim.Config{TRH: trh, Scheme: scheme, Cores: 4, Seed: seed}, streams)
	}
	for _, r := range runs {
		spec, ok := workload.ByName(r.Workload)
		if !ok {
			mismatches++
			continue
		}
		ipc, ok := nominal[r.Workload]
		if !ok {
			cal := build(spec, repro.SchemeBaseline, 1000, 1.0).Run(0).IPC
			ipc = min(max(cal, 0.01), 2)
			nominal[r.Workload] = ipc
		}
		trh := r.TRH
		if r.Scheme == repro.SchemeBaseline {
			trh = 1000
		}
		sys := build(spec, r.Scheme, trh, ipc)
		res := sys.Run(0)
		if res.Requests != r.Result.Requests || res.IPC != r.Result.IPC || res.MitStats != r.Result.MitStats {
			mismatches++
			continue
		}
		st := sys.Rank.Stats()
		rc.activates += st.Activates
		rc.rowHits += st.RowHits
		rc.accesses += st.Reads + st.Writes
	}
	return rc, mismatches
}

// micro is one internal/perf microbenchmark.
type micro struct {
	name string
	fn   func(*testing.B)
}

var micros = []micro{
	{"ctrl_submit", perf.BenchSubmit},
	{"dram_access", perf.BenchAccess},
	{"tracker_act", perf.BenchTrackerACT},
	{"mitigation_translate", perf.BenchTranslate},
	{"event_pop", perf.BenchEventPop},
}

// runMicros measures each micro's ns/op with testing.Benchmark.
func runMicros() (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", "300ms"); err != nil {
		return nil, fmt.Errorf("set benchtime: %w", err)
	}
	out := make(map[string]float64)
	for _, m := range micros {
		r := testing.Benchmark(m.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("micro %s did not run", m.name)
		}
		out[m.name] = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return out, nil
}

// traceInputs is everything a traced run observed.
type traceInputs struct {
	self       map[string]float64 // layer -> CPU self seconds
	spans      []cellSpan         // Lab.Run spans (Lab workloads)
	jobs       []jobRecord        // farm jobs (serve_mix)
	runs       []sim.WorkloadRun  // cells the traced unit returned or simulated
	cells      sim.CellStats
	store      cellcache.Stats
	farm       *farm.StatsSnapshot // serve_mix only
	rank       rankCounts
	micros     map[string]float64
	overhead   float64 // traced vs untraced wall, percent
	failedFrac float64
	genLagMS   float64
	refLoopNS  float64
}

// layerMetrics turns a traced run's observations into the per-layer
// metrics. Counters a workload does not exercise read 0.
func layerMetrics(in traceInputs) metrics {
	m := metrics{}
	total := 0.0
	for _, l := range layers {
		m.set(l+".self_s", in.self[l], "s")
		total += in.self[l]
	}
	m.set("profile.total_s", total, "s")

	byScheme := make(map[repro.Scheme][]float64)
	for _, sp := range in.spans {
		if sp.err == nil {
			byScheme[sp.run.Scheme] = append(byScheme[sp.run.Scheme], sp.dur.Seconds())
		}
	}
	for _, s := range schemes {
		m.set("sim.cell_s."+s.String()+".p50", quantile(byScheme[s], 0.5), "s")
		m.set("sim.cell_s."+s.String()+".max", maxOf(byScheme[s]), "s")
	}

	var wait, run []float64
	for _, j := range in.jobs {
		if j.job == nil || j.status.Started.IsZero() {
			continue
		}
		wait = append(wait, j.status.Started.Sub(j.status.Submitted).Seconds())
		run = append(run, j.status.Finished.Sub(j.status.Started).Seconds())
	}
	m.set("farm.queue_wait_s.p50", quantile(wait, 0.5), "s")
	m.set("farm.queue_wait_s.p90", quantile(wait, 0.9), "s")
	m.set("farm.run_s.p50", quantile(run, 0.5), "s")
	m.set("farm.run_s.p90", quantile(run, 0.9), "s")

	var req, lat, tbl, lookups, bloomed, hits, resolved int64
	var aquaMig, rrsMig, mitigations int64
	var aquaSlow, rrsSlow, aquaMig64, rrsMig64 []float64
	for _, r := range in.runs {
		res := r.Result
		req += res.CtrlStats.Requests
		lat += int64(res.CtrlStats.TotalLatency)
		mitigations += res.MitStats.Mitigations
		switch r.Scheme {
		case repro.SchemeAquaMemMapped, repro.SchemeAquaSRAM:
			s := res.MitStats
			aquaMig += s.RowMigrations
			tbl += s.TableDRAMAccesses
			lookups += s.TotalLookups()
			bloomed += s.Lookups[mitigation.LookupBloomFiltered]
			hits += s.Lookups[mitigation.LookupCacheHit]
			resolved += s.Lookups[mitigation.LookupCacheHit] + s.Lookups[mitigation.LookupSingleton] + s.Lookups[mitigation.LookupDRAM]
		case repro.SchemeRRS:
			rrsMig += res.MitStats.RowMigrations
		}
		if r.TRH != 1000 || r.NormIPC <= 0 {
			continue
		}
		switch r.Scheme {
		case repro.SchemeAquaMemMapped:
			aquaSlow = append(aquaSlow, (1/r.NormIPC-1)*100)
			aquaMig64 = append(aquaMig64, res.MigrationsPer64ms)
		case repro.SchemeRRS:
			rrsSlow = append(rrsSlow, (1/r.NormIPC-1)*100)
			rrsMig64 = append(rrsMig64, res.MigrationsPer64ms)
		}
	}
	m.set("memctrl.requests", float64(req), "count")
	m.set("memctrl.avg_latency_ns", ratio(float64(lat), float64(req))/1000, "ns")
	m.set("dram.activates", float64(in.rank.activates), "count")
	m.set("dram.row_hit_ratio", ratio(float64(in.rank.rowHits), float64(in.rank.rowHits+in.rank.activates)), "ratio")
	m.set("core.migrations", float64(aquaMig), "count")
	m.set("core.fpt_cache_hit_ratio", ratio(float64(hits), float64(resolved)), "ratio")
	m.set("core.bloom_filtered_ratio", ratio(float64(bloomed), float64(lookups)), "ratio")
	m.set("core.table_dram_accesses", float64(tbl), "count")
	m.set("rrs.migrations", float64(rrsMig), "count")
	m.set("tracker.mitigations", float64(mitigations), "count")
	m.set("core.slowdown_pct", mean(aquaSlow), "%")
	m.set("rrs.slowdown_pct", mean(rrsSlow), "%")
	m.set("core.migrations_per_64ms", mean(aquaMig64), "count")
	m.set("rrs.migrations_per_64ms", mean(rrsMig64), "count")

	c := in.cells
	m.set("trace.captures", float64(c.TraceCaptures), "count")
	m.set("trace.replay_ratio", ratio(float64(c.TraceReplays), float64(c.TraceCaptures+c.TraceReplays)), "ratio")
	m.set("sim.cells_simulated", float64(c.Simulated), "count")
	m.set("sim.cells_deduped", float64(c.Deduped()), "count")
	m.set("cellcache.puts", float64(in.store.Puts), "count")
	m.set("cellcache.mem_hits", float64(in.store.MemHits), "count")
	m.set("cellcache.disk_hits", float64(in.store.DiskHits), "count")
	m.set("cellcache.misses", float64(in.store.Misses), "count")
	var shed, claims, conflicts, reclaimed, released int64
	if fs := in.farm; fs != nil {
		shed = fs.Shed
		l := fs.Leases
		claims, conflicts, reclaimed, released = l.Claims, l.Conflicts, l.Reclaimed, l.Released
	}
	m.set("farm.shed", float64(shed), "count")
	m.set("leases.claims", float64(claims), "count")
	m.set("leases.conflicts", float64(conflicts), "count")
	m.set("leases.reclaimed", float64(reclaimed), "count")
	m.set("leases.released", float64(released), "count")

	// Reconciliation: count x micro ns/op against the profiled self time.
	// ctrl_submit times the whole submit pipeline, so it is held against
	// the pipeline's combined self time; the others price one layer.
	pipeline := 0.0
	for _, l := range []string{"memctrl", "dram", "core", "tracker", "rrs", "mitigation", "bloom", "sramcache"} {
		pipeline += in.self[l]
	}
	recon := []struct {
		layer string
		count int64
		micro string
		self  float64
	}{
		{"memctrl", req, "ctrl_submit", pipeline},
		{"dram", in.rank.accesses, "dram_access", in.self["dram"]},
		{"tracker", in.rank.activates, "tracker_act", in.self["tracker"]},
		{"core", lookups, "mitigation_translate", in.self["core"]},
		{"event", req, "event_pop", in.self["event"]},
	}
	for _, r := range recon {
		predicted := float64(r.count) * in.micros[r.micro] / 1e9
		res := 0.0
		if r.self > 0 && predicted > 0 {
			res = (r.self - predicted) / r.self * 100
		}
		m.set("recon."+r.layer+".residual_pct", res, "%")
	}

	m.set("trace_overhead_pct", in.overhead, "%")
	m.set("failed_frac", in.failedFrac, "ratio")
	m.set("gen_lag_p90_ms", in.genLagMS, "ms")
	m.set("host.ref_loop_ns", in.refLoopNS, "ns")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	return m
}
