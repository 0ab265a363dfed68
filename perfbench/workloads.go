package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/sim"
)

// tally accumulates attempted and failed operations, reporting the first
// failure of each check on standard error.
type tally struct {
	attempted, failed int
}

func (t *tally) add(attempted, failed int, first string) {
	t.attempted += attempted
	t.failed += failed
	if first != "" {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", first)
	}
}

func (t *tally) result(m metrics) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

func (t *tally) failedFrac() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// profiled runs fn under the CPU profiler and returns self seconds per
// layer.
func profiled(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	self, err := selfByFunction(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return foldLayers(self), nil
}

// runLab measures a Lab workload. Untraced, it runs whole passes (each a
// fresh Lab) while the next one is expected to fit in the time budget,
// at least one, and reports medians over passes and quantiles over cell
// spans. Traced, it runs one untraced and one profiled pass.
func runLab(o options, spec labSpec, refLoopNS float64) (result, error) {
	var want map[string]string
	if o.seed == goldenSeed {
		d, err := loadDigests(o.workload)
		if err != nil {
			return result{}, err
		}
		want = d
	}
	setupS, err := medianSetup(func() error { return spec.reset(o.workDir) }, func() (func() error, error) {
		_, err := spec.setup(o.seed, o.workDir)
		return func() error { return nil }, err
	})
	if err != nil {
		return result{}, err
	}
	var t tally
	seen := make(map[string]string)
	pass := func() (labPass, error) {
		if err := spec.reset(o.workDir); err != nil {
			return labPass{}, err
		}
		env, err := spec.setup(o.seed, o.workDir)
		if err != nil {
			return labPass{}, err
		}
		p := spec.run(env)
		failed, first := checkPass(p, want, seen)
		t.add(len(p.spans), failed, first)
		return p, nil
	}

	if o.trace {
		untraced, err := pass()
		if err != nil {
			return result{}, err
		}
		var traced labPass
		self, err := profiled(func() error {
			var err error
			traced, err = pass()
			return err
		})
		if err != nil {
			return result{}, err
		}
		var runs []sim.WorkloadRun
		for _, sp := range traced.spans {
			if sp.err == nil {
				runs = append(runs, sp.run)
			}
		}
		rank, mismatches := replicate(runs, spec.window, o.seed)
		msg := ""
		if mismatches > 0 {
			msg = fmt.Sprintf("%d cells did not reproduce on a directly built system", mismatches)
		}
		t.add(len(runs), mismatches, msg)
		mic, err := runMicros()
		if err != nil {
			return result{}, err
		}
		m := layerMetrics(traceInputs{
			self: self, spans: traced.spans, runs: runs, cells: traced.cells,
			store: traced.store, rank: rank, micros: mic,
			overhead:   (traced.cpu/untraced.cpu - 1) * 100,
			failedFrac: t.failedFrac(), refLoopNS: refLoopNS,
		})
		setWall(m, untraced.wall.Seconds(), len(untraced.spans), untraced.latencies())
		return t.result(m), nil
	}

	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var last time.Duration
	var walls, cpus, mreq, alloc []float64
	for len(cpus) == 0 || time.Since(start)+last <= budget {
		a0 := allocatedMB()
		p, err := pass()
		if err != nil {
			return result{}, err
		}
		alloc = append(alloc, (allocatedMB()-a0)/float64(len(p.spans)))
		last = p.wall
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu)
		mreq = append(mreq, float64(p.requests())/1e6/p.cpu)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, wall (s) %.3f, cpu (s) %.3f\n", len(cpus), walls, cpus)
	m := metrics{}
	m.set("setup_s", setupS, "s")
	m.set("cpu_s", median(cpus), "s")
	m.set("sim_mreq_per_cpu_s", median(mreq), "Mreq/s")
	m.set("alloc_mb_per_op", median(alloc), "MB")
	return t.result(m), nil
}

// setWall adds the wall-clock figures a user waits on — seconds per pass
// or stream, operations per second, and per-operation latency p50/p90 —
// to a traced run's per-layer metrics. They are not end-to-end metrics:
// on a shared host the hypervisor steals a varying share of the vCPUs'
// time, in phases that outlast a run, and wall time moves with it.
func setWall(m metrics, wall float64, ops int, lat []float64) {
	m.set("e2e.wall_s", wall, "s")
	m.set("e2e.jobs_per_s", ratio(float64(ops), wall), "1/s")
	m.set("e2e.job_p50_s", finite(quantile(lat, 0.5)), "s")
	m.set("e2e.job_p90_s", finite(quantile(lat, 0.9)), "s")
}

// runServe measures serve_mix: one open-loop stream of at least minJobs
// jobs (about --seconds long) against a fresh server. Traced, it runs the
// same stream twice, the second under the profiler.
func runServe(o options, refLoopNS float64) (result, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return result{}, fmt.Errorf("read golden output: %w", err)
	}
	workers := o.nproc
	rate := serveRate * float64(workers)
	plan := jobPlan(o.seed, max(minJobs, int(rate*float64(o.seconds))))
	setupS, err := medianSetup(func() error { return resetServeCache(o.workDir) }, func() (func() error, error) {
		env, err := serveSetup(o.workDir, workers)
		if err != nil {
			return nil, err
		}
		return env.shutdown, nil
	})
	if err != nil {
		return result{}, err
	}
	var t tally
	outputs := make(map[uint64]string)
	stream := func() (serveStream, error) {
		if err := resetServeCache(o.workDir); err != nil {
			return serveStream{}, err
		}
		env, err := serveSetup(o.workDir, workers)
		if err != nil {
			return serveStream{}, err
		}
		env.srv.Start()
		s, err := runStream(env, plan, rate)
		if serr := env.shutdown(); err == nil && serr != nil {
			err = fmt.Errorf("shut down farm: %w", serr)
		}
		if err != nil {
			return serveStream{}, err
		}
		failed, first := checkStream(s, string(golden), outputs)
		t.add(len(s.jobs), failed, first)
		return s, nil
	}

	if o.trace {
		untraced, err := stream()
		if err != nil {
			return result{}, err
		}
		var traced serveStream
		self, err := profiled(func() error {
			var err error
			traced, err = stream()
			return err
		})
		if err != nil {
			return result{}, err
		}
		mic, err := runMicros()
		if err != nil {
			return result{}, err
		}
		var cells sim.CellStats
		for _, j := range traced.jobs {
			c := j.status.Cells
			cells.Requests += c.Requests
			cells.CacheHits += c.CacheHits
			cells.Simulated += c.Simulated
			cells.Errors += c.Errors
			cells.TraceCaptures += c.TraceCaptures
			cells.TraceReplays += c.TraceReplays
		}
		var lags []float64
		for _, j := range traced.jobs {
			lags = append(lags, float64(j.arrival.lag())/float64(time.Millisecond))
		}
		m := layerMetrics(traceInputs{
			self: self, jobs: traced.jobs, runs: traced.results, cells: cells,
			store: traced.stats.Store, farm: &traced.stats, micros: mic,
			overhead:   (traced.cpu/untraced.cpu - 1) * 100,
			failedFrac: t.failedFrac(), genLagMS: quantile(lags, 0.9), refLoopNS: refLoopNS,
		})
		lat, done := untraced.latencies()
		setWall(m, untraced.wall.Seconds(), done, lat)
		return t.result(m), nil
	}

	s, err := stream()
	if err != nil {
		return result{}, err
	}
	var reqs int64
	for _, r := range s.results {
		reqs += r.Result.Requests
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d jobs, wall (s) %.3f, cpu (s) %.3f\n", len(s.jobs), s.wall.Seconds(), s.cpu)
	m := metrics{}
	m.set("setup_s", setupS, "s")
	m.set("cpu_s", s.cpu, "s")
	m.set("sim_mreq_per_cpu_s", ratio(float64(reqs)/1e6, s.cpu), "Mreq/s")
	m.set("alloc_mb_per_op", s.allocMB/float64(len(s.jobs)), "MB")
	return t.result(m), nil
}
