// Package farm is the crash-tolerant sharded experiment service behind
// cmd/aquaserve: an HTTP/JSON job API that shards experiment-grid cells
// across a bounded worker pool and serves results out of the shared
// content-addressed cellcache. Each job runs on its own Lab, which
// coalesces duplicate cells inside the job; jobs and processes share
// nothing but the store, so a cell another job already finished is
// served from it, and the worst case of two jobs missing the same cell
// at once is one duplicate deterministic simulation writing identical
// bytes.
//
// Robustness model (see DESIGN.md "Service architecture & failure
// domains"):
//
//   - Admission control: a bounded queue; a full queue sheds the request
//     (HTTP 429 + Retry-After) instead of growing memory.
//   - Failure domains: each job runs on its own Lab with per-cell panic
//     isolation and bounded retry inherited from internal/sim; one
//     poisoned cell degrades its job to partial results, one poisoned
//     job never touches another.
//   - Deadlines: per-job context.WithTimeout, flowing through the sim
//     core's dual-stride cancellation checks.
//   - Crash handoff: completed cells land in the shared cellcache as
//     they finish; a worker SIGKILLed mid-grid leaves only finished
//     entries behind (plus, at most, an orphaned temp file), so the next
//     job serves those from the cache and simulates the rest, with
//     nothing to wait out.
//   - Graceful drain: Shutdown stops admission, cancels queued jobs,
//     gives running jobs a grace window, then hard-cancels; completed
//     cells are already durable, so a resubmitted job resumes.
//
// The package is clock-free by construction (the noclock lint applies):
// all wall time flows through the injected Clock.
package farm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/cellcache"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Clock injects wall time. The fields are funcs, not an interface, so
// determinism tracing treats call sites as opaque; the real
// implementation lives in cmd/aquaserve (where wall-clock reads are
// allowed), fakes live in tests.
type Clock struct {
	// Now returns the current wall time.
	Now func() time.Time
	// Sleep is unused and optional. It is kept only because the
	// perfbench module still sets it; remove the two together.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Options configures a Server.
type Options struct {
	// ServerID names this process in job IDs (required; distinct per
	// process sharing a cache directory).
	ServerID string
	// Queue bounds admitted-but-unstarted jobs (default 8). At capacity,
	// Submit sheds.
	Queue int
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// CellParallel bounds per-job cell parallelism (default 0 =
	// GOMAXPROCS; chaos harnesses use 1 for deterministic kill points).
	CellParallel int
	// DefaultDeadline bounds jobs that don't set deadline_ms (default
	// 10m).
	DefaultDeadline time.Duration
	// RetryAfter is the client backoff hint sent with shed responses
	// (default 2s).
	RetryAfter time.Duration
	// CacheDir is the shared content-addressed store directory ("" =
	// in-memory only: jobs in this process still share finished cells,
	// cross-process handoff doesn't).
	CacheDir string
	// Faults arms harness-level fault injection. WorkerKill arms are
	// consumed here (at cell-start ordinals, via Kill); everything else
	// passes to the sim layer per cell.
	Faults *fault.Rules
	// Seed drives the fault injector (default the golden seed).
	Seed uint64
	// Clock is the injected wall clock (required).
	Clock Clock
	// Kill is the WorkerKill action (cmd/aquaserve SIGKILLs its own
	// process). Required only when Faults contains worker-kill arms.
	Kill func()
}

func (o *Options) fillDefaults() error {
	if o.ServerID == "" {
		return errors.New("farm: Options.ServerID is required")
	}
	if o.Clock.Now == nil {
		return errors.New("farm: Options.Clock.Now is required")
	}
	if o.Queue <= 0 {
		o.Queue = 8
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 10 * time.Minute
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 0x41515541
	}
	if !o.Faults.KindPlan(fault.WorkerKill).Empty() && o.Kill == nil {
		return errors.New("farm: Faults contain worker-kill arms but Options.Kill is nil")
	}
	return nil
}

// Sentinel errors mapped to HTTP statuses by http.go.
var (
	// ErrQueueFull is returned by Submit when admission control sheds.
	ErrQueueFull = errors.New("farm: queue full")
	// ErrDraining is returned by Submit once Shutdown has begun.
	ErrDraining = errors.New("farm: server draining")
)

// Server is the experiment farm. Build with New, start workers with
// Start, serve Handler over HTTP, stop with Shutdown.
type Server struct {
	opts  Options
	store *cellcache.Store
	// simRules is opts.Faults with the harness-level worker-kill arms
	// stripped: the sim layer must never see them, or they would enter
	// the matched cells' cache keys and a crashed server's cells could
	// never be served to a clean one.
	simRules *fault.Rules
	// killPlan holds the worker-kill arms, evaluated at cell-start
	// ordinals by each job's injector.
	killPlan fault.Plan

	queue chan *Job
	// ctx cancels every job when the server hard-stops.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*Job // guarded by mu
	// order preserves submission order for /stats listings.
	order    []string // guarded by mu
	draining bool     // guarded by mu
	shed     int64    // guarded by mu
	seq      int64    // guarded by mu
	running  int      // guarded by mu
	// agg accumulates finished jobs' cell stats for /stats.
	agg     sim.CellStats // guarded by mu
	started bool          // guarded by mu
}

// New builds a Server (validating options) without starting workers.
func New(opts Options) (*Server, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	store, err := cellcache.New(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts:     opts,
		store:    store,
		simRules: opts.Faults.WithoutKind(fault.WorkerKill),
		killPlan: opts.Faults.KindPlan(fault.WorkerKill),
		queue:    make(chan *Job, opts.Queue),
		ctx:      ctx,
		cancel:   cancel,
		jobs:     make(map[string]*Job),
	}, nil
}

// Start launches the worker pool. Idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.wg.Add(s.opts.Workers)
	for i := 0; i < s.opts.Workers; i++ {
		go func() {
			defer s.wg.Done()
			// Last-resort backstop (nakedgo): per-job panics are already
			// contained by runJobIsolated (and cell panics by the sim
			// layer below it), so this recover only fires on a bug in
			// the loop itself — it costs this one worker, not the
			// process.
			defer func() { recover() }()
			for job := range s.queue {
				s.runJobIsolated(job)
			}
		}()
	}
}

// Submit validates, admits, and enqueues a job. The returned Job is
// already registered; poll its Status or Done channel. Shed and
// draining submissions return ErrQueueFull / ErrDraining and register
// nothing — a shed job costs the server no memory.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	spec.fillDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.seq++
	job := &Job{
		ID:        fmt.Sprintf("%s-%d", s.opts.ServerID, s.seq),
		Key:       spec.Key(),
		Spec:      spec,
		state:     JobQueued,
		submitted: s.opts.Clock.Now(),
		done:      make(chan struct{}),
	}
	select {
	case s.queue <- job:
	default:
		s.seq-- // shed jobs leave no trace, not even an ID gap
		s.shed++
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()
	return job, nil
}

// Job returns a registered job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJobIsolated wraps runJob in its own recover so a harness-level
// panic fails one job, not the worker pool.
func (s *Server) runJobIsolated(job *Job) {
	defer func() {
		if r := recover(); r != nil {
			job.mu.Lock()
			job.errMsg = fmt.Sprintf("panic: %v", r)
			job.mu.Unlock()
			job.finish(JobFailed, s.opts.Clock.Now())
		}
	}()
	s.runJob(job)
}

// runJob executes one job end to end.
func (s *Server) runJob(job *Job) {
	// The queued->running transition is atomic under job.mu so a drain
	// that cancelled this job while it sat in the queue can't be
	// overwritten back to running.
	job.mu.Lock()
	if job.state != JobQueued {
		job.mu.Unlock()
		return
	}
	job.state = JobRunning
	job.started = s.opts.Clock.Now()
	job.mu.Unlock()

	deadline := s.opts.DefaultDeadline
	if job.Spec.DeadlineMS > 0 {
		deadline = time.Duration(job.Spec.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.ctx, deadline)
	defer cancel()
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	lab := s.buildLab(ctx, job)

	var failures []string
	var output string
	for _, name := range job.Spec.Renderers {
		r, _ := repro.RendererByName(name) // validated at submit
		sec, err := repro.RenderSection(lab, r)
		if err != nil {
			if ctx.Err() != nil {
				break // cancellation dominates: stop rendering, report below
			}
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		output += sec
	}
	cells := lab.CellStats()
	job.mu.Lock()
	job.output = output
	job.failures = failures
	job.cells = cells
	if err := ctx.Err(); err != nil {
		job.errMsg = err.Error()
	} else if output == "" && len(failures) > 0 {
		job.errMsg = "all renderers failed"
	}
	job.mu.Unlock()

	now := s.opts.Clock.Now()
	switch {
	case ctx.Err() != nil:
		job.finish(JobCancelled, now)
	case output == "" && len(failures) > 0:
		job.finish(JobFailed, now)
	default:
		job.finish(JobDone, now)
	}

	s.mu.Lock()
	s.agg.Requests += cells.Requests
	s.agg.CacheHits += cells.CacheHits
	s.agg.CacheMisses += cells.CacheMisses
	s.agg.Simulated += cells.Simulated
	s.agg.Errors += cells.Errors
	s.mu.Unlock()
}

// buildLab assembles the job's Lab: spec options, stripped fault rules,
// the shared store, and the worker-kill hook.
func (s *Server) buildLab(ctx context.Context, job *Job) *repro.Lab {
	opts := repro.LabOptions{
		Window:        dram.PS(job.Spec.WindowUS) * dram.Microsecond,
		Workloads:     job.Spec.Workloads,
		Seed:          job.Spec.Seed,
		NoCalibration: !job.Spec.Calibrate,
		Parallel:      s.opts.CellParallel,
		Faults:        s.simRules,
		Context:       ctx,
		OnCellStart:   s.cellStartHook(job),
	}
	lab := repro.NewLab(opts)
	lab.AttachCache(s.store)
	return lab
}

// cellStartHook returns the per-job OnCellStart observer: it counts
// compute-attempt ordinals and fires the worker-kill injector at them.
// Opportunity "time" is the ordinal (0, 1, 2, ...), so a rule like
// `*/*/*=worker-kill@once:2` SIGKILLs the process at the third cell
// compute this job starts — deterministic under CellParallel=1.
func (s *Server) cellStartHook(job *Job) func(string, repro.Scheme, int64) {
	if s.killPlan.Empty() {
		return nil
	}
	seed := rng.Derive(s.opts.Seed, rng.HashString(job.Key), 0xFA17)
	inj := fault.NewInjector(seed, s.killPlan, 0)
	var mu sync.Mutex
	var ordinal int64
	return func(string, repro.Scheme, int64) {
		mu.Lock()
		ord := ordinal
		ordinal++
		fire := inj.Fire(fault.WorkerKill, ord)
		mu.Unlock()
		if fire {
			s.opts.Kill()
		}
	}
}

// Shutdown drains the server: admission stops (readyz and Submit refuse),
// queued jobs are cancelled, and running jobs get until ctx ends to
// finish before being hard-cancelled. Completed cells are durable in the
// cache either way, so a resubmission after restart resumes
// instead of recomputing. Returns nil when everything finished inside
// the grace window, or ctx's error after a hard cancel.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("farm: already shut down")
	}
	s.draining = true
	started := s.started
	s.mu.Unlock()

	// No submitter can reach the queue once draining is set; close it so
	// workers exit when it empties.
	close(s.queue)
	// Queued-but-unstarted jobs cancel immediately (workers skip them).
	now := s.opts.Clock.Now()
	s.mu.Lock()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State() == JobQueued {
			j.mu.Lock()
			j.errMsg = "cancelled by shutdown"
			j.mu.Unlock()
			j.finish(JobCancelled, now)
		}
	}
	s.mu.Unlock()
	if !started {
		s.cancel()
		return nil
	}

	workersDone := make(chan struct{})
	go func() {
		defer func() { recover() }() // never leak a panic from the waiter
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		s.cancel()
		return nil
	case <-ctx.Done():
		// Grace expired: hard-cancel running jobs (the sim core observes
		// it within a bounded stride) and wait for workers to unwind.
		s.cancel()
		<-workersDone
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// StatsSnapshot is the JSON document served by GET /stats.
type StatsSnapshot struct {
	ServerID    string           `json:"server_id"`
	Draining    bool             `json:"draining"`
	QueueDepth  int              `json:"queue_depth"`
	QueueCap    int              `json:"queue_cap"`
	Workers     int              `json:"workers"`
	RunningJobs int              `json:"running_jobs"`
	Shed        int64            `json:"shed"`
	JobsByState map[JobState]int `json:"jobs_by_state"`
	Cells       sim.CellStats    `json:"cells"`
	Store       cellcache.Stats  `json:"store"`
	// Leases is always zero: the farm has no compute leases. It is kept
	// only because the perfbench module still reads these fields; remove
	// the two together.
	Leases struct {
		Claims, Conflicts, Reclaimed, Released int64
	} `json:"leases"`
}

// Stats returns a point-in-time operational snapshot. Cell counters
// aggregate finished jobs; store counters are live.
func (s *Server) Stats() StatsSnapshot {
	s.mu.Lock()
	byState := make(map[JobState]int)
	for _, id := range s.order {
		byState[s.jobs[id].State()]++
	}
	snap := StatsSnapshot{
		ServerID:    s.opts.ServerID,
		Draining:    s.draining,
		QueueDepth:  len(s.queue),
		QueueCap:    s.opts.Queue,
		Workers:     s.opts.Workers,
		RunningJobs: s.running,
		Shed:        s.shed,
		JobsByState: byState,
		Cells:       s.agg,
	}
	s.mu.Unlock()
	snap.Store = s.store.Stats()
	return snap
}
