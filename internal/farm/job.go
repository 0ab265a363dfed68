package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/sim"
)

// JobSpec is the HTTP/JSON description of one experiment-grid job: a lab
// configuration plus the renderers to produce. The zero value renders
// the full registry on the reduced golden lab (500 us window, xz+wrf,
// no calibration) — the grid pinned byte-for-byte by
// testdata/lab_golden.txt.
type JobSpec struct {
	// WindowUS is the simulated measurement window in microseconds
	// (default 500 — the reduced golden window; the paper's full window
	// is 64000).
	WindowUS int64 `json:"window_us,omitempty"`
	// Workloads selects the evaluated cases (default xz, wrf).
	Workloads []string `json:"workloads,omitempty"`
	// Seed drives all randomization (default the golden seed).
	Seed uint64 `json:"seed,omitempty"`
	// Calibrate enables the two-pass baseline-IPC calibration (default
	// off, matching the golden lab; full paper runs turn it on).
	Calibrate bool `json:"calibrate,omitempty"`
	// Renderers names the figures/tables to render, in request order
	// (default: the whole registry in canonical order).
	Renderers []string `json:"renderers,omitempty"`
	// DeadlineMS bounds the job's wall-clock run time in milliseconds
	// (0 = the server's default deadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

func (s *JobSpec) fillDefaults() {
	if s.WindowUS == 0 {
		s.WindowUS = 500
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []string{"xz", "wrf"}
	}
	if s.Seed == 0 {
		s.Seed = 0x41515541
	}
	if len(s.Renderers) == 0 {
		s.Renderers = repro.RendererNames()
	}
}

// validate rejects specs no job could run. Call after fillDefaults.
func (s *JobSpec) validate() error {
	if s.WindowUS < 1 || s.WindowUS > 256_000 {
		return fmt.Errorf("farm: window_us %d out of range [1, 256000]", s.WindowUS)
	}
	known := make(map[string]bool)
	for _, w := range repro.AllWorkloads() {
		known[w] = true
	}
	for _, w := range s.Workloads {
		if !known[w] {
			return fmt.Errorf("farm: unknown workload %q", w)
		}
	}
	for _, r := range s.Renderers {
		if _, ok := repro.RendererByName(r); !ok {
			return fmt.Errorf("farm: unknown renderer %q (known: %s)",
				r, strings.Join(repro.RendererNames(), ", "))
		}
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("farm: negative deadline_ms %d", s.DeadlineMS)
	}
	return nil
}

// Key is the content hash of everything that determines the job's
// output: the lab configuration and the renderer list. The deadline is
// excluded — it bounds wall-clock, never bytes. Duplicate jobs share a
// key, which lets operators spot dedup in /stats.
func (s JobSpec) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "aqua-job-v1\nwindow_us=%d seed=%#x calibrate=%t\n", s.WindowUS, s.Seed, s.Calibrate)
	ws := append([]string(nil), s.Workloads...)
	sort.Strings(ws)
	fmt.Fprintf(&b, "workloads=%s\n", strings.Join(ws, ","))
	fmt.Fprintf(&b, "renderers=%s\n", strings.Join(s.Renderers, ","))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued jobs are admitted and waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning jobs are executing on a worker.
	JobRunning JobState = "running"
	// JobDone jobs completed; Output holds the rendered sections (all of
	// them, or — when some renderers failed — the surviving subset, with
	// Failures naming the rest).
	JobDone JobState = "done"
	// JobFailed jobs produced no output at all.
	JobFailed JobState = "failed"
	// JobCancelled jobs were stopped by deadline, client cancellation, or
	// server drain before completing.
	JobCancelled JobState = "cancelled"
)

// Job is one admitted job's full lifecycle record.
type Job struct {
	// ID is the server-assigned identity ("<serverID>-<n>").
	ID string
	// Key is the content hash of the spec (shared by duplicates).
	Key string
	// Spec is the validated, defaulted spec.
	Spec JobSpec

	mu sync.Mutex
	// state transitions queued -> running -> done|failed|cancelled, or
	// queued -> cancelled when drained before starting.
	state JobState // guarded by mu
	// output is the concatenation of successfully rendered sections in
	// request order, each framed "=== name ===\n<out>\n".
	output string // guarded by mu
	// failures records per-renderer errors (partial degradation).
	failures []string // guarded by mu
	// errMsg is the job-level failure/cancellation cause.
	errMsg string // guarded by mu
	// submitted/started/finished are clock timestamps for operators.
	submitted time.Time // guarded by mu
	started   time.Time // guarded by mu
	finished  time.Time // guarded by mu
	// cells snapshots the job lab's cell accounting at completion.
	cells sim.CellStats // guarded by mu

	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

// JobStatus is the JSON snapshot served by GET /jobs/{id}.
type JobStatus struct {
	ID        string        `json:"id"`
	Key       string        `json:"key"`
	State     JobState      `json:"state"`
	Failures  []string      `json:"failures,omitempty"`
	Error     string        `json:"error,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Started   time.Time     `json:"started,omitzero"`
	Finished  time.Time     `json:"finished,omitzero"`
	Cells     sim.CellStats `json:"cells"`
	HasOutput bool          `json:"has_output"`
}

// Status returns a consistent snapshot.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.ID,
		Key:       j.Key,
		State:     j.state,
		Failures:  append([]string(nil), j.failures...),
		Error:     j.errMsg,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Cells:     j.cells,
		HasOutput: j.output != "",
	}
}

// State returns the current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Output returns the rendered sections ("" until something rendered).
func (j *Job) Output() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.output
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state JobState, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCancelled {
		return
	}
	j.state = state
	j.finished = now
	close(j.done)
}
