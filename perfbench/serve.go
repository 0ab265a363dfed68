package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cellcache"
	"repro/internal/farm"
	"repro/internal/rng"
	"repro/internal/sim"
)

// goldenSeed is the seed testdata/lab_golden.txt was rendered with.
const goldenSeed = 0x41515541

// goldenPath is the committed output of a default job, relative to the
// repository root the benchmark runs from.
var goldenPath = filepath.Join("testdata", "lab_golden.txt")

// serveRate is the open-loop offered load in jobs per second per
// worker. A fresh golden-sized job costs about 0.4 s of one core and a
// repeated one about 0.2 s, so the 40/60 mix at this rate keeps each
// worker a bit under half busy: queueing shows in p90 without the
// backlog growing, and 100 jobs take about 33 s on two workers.
const serveRate = 1.5

// freshShare is the fraction of jobs after the first that carry a fresh
// seed. Fresh jobs take about twice as long as repeats, so job latency
// is bimodal; at an even split p50 would sit on the gap between the
// modes and swing with the mix. At 40% p50 falls inside the repeat mode
// and p90 inside the fresh one.
const freshShare = 0.4

// minJobs keeps at least ten samples beyond the reported p90.
const minJobs = 100

// clock is the generator's view of time; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// arrival is one open-loop send: when it was due and when the generator
// actually issued it.
type arrival struct {
	due, sent time.Time
}

// lag is how late the generator issued the send.
func (a arrival) lag() time.Duration { return a.sent.Sub(a.due) }

// openLoop issues n sends on a fixed schedule — send i is due at
// start + i*interval regardless of how earlier sends fared — from the
// calling goroutine. A send that cannot start on time (the generator
// stalled, or submit itself was slow) starts as soon as possible and
// keeps its original due time, so the stall is charged to every send it
// delayed instead of silently stretching the schedule.
func openLoop(c clock, n int, interval time.Duration, submit func(i int)) []arrival {
	out := make([]arrival, n)
	start := c.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(c.Now()); d > 0 {
			c.Sleep(d)
		}
		out[i].due = due
		out[i].sent = c.Now()
		submit(i)
	}
	return out
}

// jobPlan is the seeded job sequence: job 0 uses the golden seed; of
// the rest, freshShare carry a fresh seed (simulation plus cache writes)
// and the others repeat an earlier job's spec (cache reads), in a seeded
// order.
func jobPlan(seed uint64, n int) []uint64 {
	r := rng.New(rng.Derive(seed, 0x5e7e))
	fresh := make([]bool, n-1)
	for i := 0; i < int(float64(n-1)*freshShare); i++ {
		fresh[i] = true
	}
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	seeds := make([]uint64, n)
	distinct := []uint64{goldenSeed}
	seeds[0] = goldenSeed
	for i := 1; i < n; i++ {
		if !fresh[i-1] {
			seeds[i] = distinct[r.Intn(len(distinct))]
			continue
		}
		s := r.Uint64() | 1
		for s == goldenSeed {
			s = r.Uint64() | 1
		}
		seeds[i] = s
		distinct = append(distinct, s)
	}
	return seeds
}

// serveEnv is a started in-process farm server over a fresh cache
// directory.
type serveEnv struct {
	srv      *farm.Server
	cacheDir string
}

func farmClock() farm.Clock {
	return farm.Clock{
		Now: time.Now,
		Sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
}

func serveCacheDir(workDir string) string { return filepath.Join(workDir, "serve-cache") }

// resetServeCache empties the server's cache directory.
func resetServeCache(workDir string) error {
	dir := serveCacheDir(workDir)
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("reset cache dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create cache dir: %w", err)
	}
	return nil
}

// serveSetup builds a server, with workers x cell-parallel bounded by
// nproc, over the (already reset) cache directory. It does not start the
// workers.
func serveSetup(workDir string, nproc int) (serveEnv, error) {
	dir := serveCacheDir(workDir)
	srv, err := farm.New(farm.Options{
		ServerID:     "perfbench",
		Queue:        16,
		Workers:      nproc,
		CellParallel: 1,
		CacheDir:     dir,
		Clock:        farmClock(),
	})
	if err != nil {
		return serveEnv{}, fmt.Errorf("build farm server: %w", err)
	}
	return serveEnv{srv: srv, cacheDir: dir}, nil
}

func (e serveEnv) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return e.srv.Shutdown(ctx)
}

// jobRecord is one planned job's outcome.
type jobRecord struct {
	seed    uint64
	arrival arrival
	job     *farm.Job // nil when shed or rejected
	err     error
	status  farm.JobStatus
	output  string
}

// latency is from the job's due time to its completion; shed, failed or
// cancelled jobs never complete and count as +Inf.
func (r jobRecord) latency() float64 {
	if r.job == nil || r.status.State != farm.JobDone || len(r.status.Failures) > 0 {
		return inf
	}
	return r.status.Finished.Sub(r.arrival.due).Seconds()
}

// serveStream is one open-loop job stream against one server.
type serveStream struct {
	wall    time.Duration // first due time to last completion
	cpu     float64       // process CPU seconds from the first send to the last completion
	allocMB float64       // heap allocated while the jobs ran
	jobs    []jobRecord
	stats   farm.StatsSnapshot
	results []sim.WorkloadRun // every cell the stream's jobs simulated
}

// runStream feeds the plan to the server open-loop at rate jobs/s, waits
// for every admitted job, and collects the cells the jobs wrote to the
// cache.
func runStream(env serveEnv, plan []uint64, rate float64) (serveStream, error) {
	recs := make([]jobRecord, len(plan))
	interval := time.Duration(float64(time.Second) / rate)
	a0, c0 := allocatedMB(), cpuSeconds()
	arrivals := openLoop(realClock{}, len(plan), interval, func(i int) {
		recs[i].seed = plan[i]
		recs[i].job, recs[i].err = env.srv.Submit(farm.JobSpec{Seed: plan[i]})
	})
	var last time.Time
	for i := range recs {
		recs[i].arrival = arrivals[i]
		if j := recs[i].job; j != nil {
			<-j.Done()
			recs[i].status = j.Status()
			recs[i].output = j.Output()
			if recs[i].status.Finished.After(last) {
				last = recs[i].status.Finished
			}
		}
	}
	st := serveStream{allocMB: allocatedMB() - a0, cpu: cpuSeconds() - c0, jobs: recs, stats: env.srv.Stats()}
	if len(arrivals) > 0 && last.After(arrivals[0].due) {
		st.wall = last.Sub(arrivals[0].due)
	}
	var err error
	st.results, err = cachedRuns(env.cacheDir)
	return st, err
}

// cachedRuns decodes every cell entry in a cache directory through a
// separate cellcache.Store: the cells the farm simulated and wrote back.
func cachedRuns(dir string) ([]sim.WorkloadRun, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("list cache dir: %w", err)
	}
	st, err := cellcache.New(dir)
	if err != nil {
		return nil, fmt.Errorf("open cache dir: %w", err)
	}
	var out []sim.WorkloadRun
	for _, e := range ents {
		if e.IsDir() || strings.Contains(e.Name(), ".") {
			continue // leases, temp files, the trace spill directory
		}
		data, ok := st.Get(e.Name())
		if !ok {
			continue
		}
		var r sim.WorkloadRun
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("decode cache entry %s: %w", e.Name(), err)
		}
		out = append(out, r)
	}
	return out, nil
}

// checkStream counts failed jobs: shed or unfinished jobs, jobs whose
// golden-seed output differs from the committed golden file, and repeats
// whose output differs from the first job with the same spec (outputs,
// shared across the streams of one run).
func checkStream(s serveStream, golden string, outputs map[uint64]string) (int, string) {
	failed, first := 0, ""
	fail := func(format string, a ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf(format, a...)
		}
	}
	for i, r := range s.jobs {
		switch {
		case r.job == nil:
			if errors.Is(r.err, farm.ErrQueueFull) {
				fail("job %d: shed", i)
			} else {
				fail("job %d: %v", i, r.err)
			}
			continue
		case r.status.State != farm.JobDone || len(r.status.Failures) > 0:
			fail("job %d: %s %s %v", i, r.status.State, r.status.Error, r.status.Failures)
			continue
		case r.seed == goldenSeed && r.output != golden:
			fail("job %d: golden-seed output differs from testdata/lab_golden.txt", i)
			continue
		}
		if prev, ok := outputs[r.seed]; ok && prev != r.output {
			fail("job %d: output differs from an earlier job with seed %#x", i, r.seed)
			continue
		}
		outputs[r.seed] = r.output
	}
	return failed, first
}

// latencies returns each job's latency (+Inf when it never completed)
// and the number that completed.
func (s serveStream) latencies() ([]float64, int) {
	var lat []float64
	done := 0
	for _, j := range s.jobs {
		l := j.latency()
		lat = append(lat, l)
		if l < inf {
			done++
		}
	}
	return lat, done
}
