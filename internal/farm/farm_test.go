package farm

// Service-level acceptance tests (test files are exempt from the noclock
// lint, so the real wall clock drives the server here):
//
//   - a submitted golden-spec job reproduces testdata/lab_golden.txt
//     byte-for-byte through the HTTP API;
//   - a duplicate job submitted after the first finishes is served
//     entirely from the shared store;
//   - admission control sheds with 429 + Retry-After at queue capacity
//     while in-flight jobs still complete;
//   - per-renderer faults degrade a job to partial results, untouched
//     sections staying byte-identical;
//   - worker-kill fault arms fire the harness Kill hook without ever
//     reaching the simulator;
//   - drain cancels queued jobs, hard-cancels overrunning jobs at the
//     grace deadline, and refuses new work.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// newTestServer builds and starts a server with fast test defaults;
// mutate applies per-test option overrides before New.
func newTestServer(t *testing.T, mutate func(*Options)) *Server {
	t.Helper()
	opts := Options{
		ServerID: "test",
		Queue:    8,
		Workers:  2,
		Clock:    Clock{Now: time.Now},
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// goldenBytes loads the repo-root golden file the farm must reproduce.
func goldenBytes(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "lab_golden.txt"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	return string(raw)
}

// goldenSection extracts one "=== name ===" section (with framing) from
// the golden stream.
func goldenSection(t *testing.T, name string) string {
	t.Helper()
	golden := goldenBytes(t)
	marker := "=== " + name + " ===\n"
	i := strings.Index(golden, marker)
	if i < 0 {
		t.Fatalf("golden file has no section %q", name)
	}
	rest := golden[i+len(marker):]
	if j := strings.Index(rest, "=== "); j >= 0 {
		rest = rest[:j]
	}
	return marker + rest
}

// waitTerminal blocks until the job leaves queued/running.
func waitTerminal(t *testing.T, job *Job) JobState {
	t.Helper()
	select {
	case <-job.Done():
		return job.State()
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s stuck in state %s", job.ID, job.State())
		return ""
	}
}

// TestServerGoldenJobHTTP drives the full HTTP surface: submit the
// default (golden) spec, poll status, fetch output, and require the
// bytes match the committed golden file exactly.
func TestServerGoldenJobHTTP(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", probe, resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	if sub.ID == "" || sub.Key == "" {
		t.Fatalf("submit response missing id/key: %+v", sub)
	}

	deadline := time.Now().Add(2 * time.Minute)
	var status JobStatus
	for {
		r, err := http.Get(ts.URL + "/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if status.State != JobQueued && status.State != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", status.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status.State != JobDone {
		t.Fatalf("job finished %s (error %q, failures %v), want done", status.State, status.Error, status.Failures)
	}
	if len(status.Failures) != 0 {
		t.Fatalf("unexpected renderer failures: %v", status.Failures)
	}
	if status.Cells.Requests == 0 || status.Cells.Simulated == 0 {
		t.Fatalf("cell stats look empty: %+v", status.Cells)
	}

	out, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(out.Body)
	out.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.StatusCode != http.StatusOK {
		t.Fatalf("GET output = %d, want 200", out.StatusCode)
	}
	if h := out.Header.Get("X-Aqua-Partial"); h != "" {
		t.Fatalf("complete job flagged partial: %q", h)
	}
	if got, want := string(body), goldenBytes(t); got != want {
		t.Fatalf("farm output diverged from golden file (%d vs %d bytes)", len(got), len(want))
	}

	if r, err := http.Get(ts.URL + "/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET unknown job = %d, want 404", r.StatusCode)
		}
	}
}

// TestDuplicateJobsDedupe is the cache handoff between jobs: a
// duplicate submitted after the first job finishes is served entirely
// from the shared store — not one cell simulated — and both outputs
// match the golden sections.
func TestDuplicateJobsDedupe(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.CacheDir = t.TempDir()
	})
	spec := JobSpec{Workloads: []string{"xz", "wrf"}, Renderers: []string{"table2", "figure3"}}
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j1); st != JobDone {
		t.Fatalf("job1 %s: %q", st, j1.Status().Error)
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j1.Key != j2.Key {
		t.Fatalf("duplicate specs got different keys %s vs %s", j1.Key, j2.Key)
	}
	if st := waitTerminal(t, j2); st != JobDone {
		t.Fatalf("job2 %s: %q", st, j2.Status().Error)
	}
	want := goldenSection(t, "table2") + goldenSection(t, "figure3")
	for i, j := range []*Job{j1, j2} {
		if j.Output() != want {
			t.Fatalf("job%d output diverged from golden sections (%d vs %d bytes)", i+1, len(j.Output()), len(want))
		}
	}
	if c := j2.Status().Cells; c.Simulated != 0 || c.CacheHits < 1 {
		t.Fatalf("duplicate job not served from the store: %+v", c)
	}
	stats := s.Stats()
	if stats.JobsByState[JobDone] != 2 {
		t.Fatalf("jobs by state = %v, want 2 done", stats.JobsByState)
	}
}

// TestOverloadSheds fills the queue and requires the overflow submission
// to shed with 429 + Retry-After while the admitted jobs still finish.
// The running job is pinned mid-cell by a blocking worker-kill hook so
// the queue state is deterministic, then released.
func TestOverloadSheds(t *testing.T) {
	rules, err := fault.ParseRules("*/*/*=worker-kill@once:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.Queue = 1
		o.RetryAfter = 3 * time.Second
		o.Faults = rules
		o.Kill = func() { <-gate }
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"workloads":["xz"],"renderers":["figure3"]}`
	post := func() *http.Response {
		r, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1 := post()
	var sub1 submitResponse
	if err := json.NewDecoder(r1.Body).Decode(&sub1); err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	j1, _ := s.Job(sub1.ID)
	// Wait for the worker to pull job1 (it then blocks on the gate at its
	// first cell start) so job2 occupies the queue slot.
	for j1.State() == JobQueued {
		time.Sleep(time.Millisecond)
	}

	r2 := post()
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", r2.StatusCode)
	}
	r3 := post()
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", r3.StatusCode)
	}
	if ra := r3.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	// Release the pinned cell: shedding cost the server nothing and the
	// in-flight jobs complete well inside their (default) deadlines.
	close(gate)
	for _, id := range []string{"test-1", "test-2"} {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s not registered", id)
		}
		if st := waitTerminal(t, j); st != JobDone {
			t.Fatalf("job %s finished %s (%q), want done", id, st, j.Status().Error)
		}
	}
	stats := s.Stats()
	if stats.Shed != 1 {
		t.Fatalf("shed = %d, want 1", stats.Shed)
	}
	if _, ok := s.Job("test-3"); ok {
		t.Fatal("shed job was registered")
	}
}

// TestSubmitValidation rejects malformed specs at the door.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"workloads":["nope"]}`,
		`{"renderers":["figure99"]}`,
		`{"window_us":-5}`,
		`{"deadline_ms":-1}`,
		`{"unknown_field":1}`,
		`not json`,
	} {
		r, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %q = %d, want 400", body, r.StatusCode)
		}
	}
	if st := s.Stats(); len(st.JobsByState) != 0 {
		t.Fatalf("invalid submissions registered jobs: %v", st.JobsByState)
	}
}

// TestJobDeadlineCancels: a 1ms deadline on the full golden grid cannot
// complete; the job must come back cancelled with the deadline named,
// not wedge a worker.
func TestJobDeadlineCancels(t *testing.T) {
	s := newTestServer(t, nil)
	j, err := s.Submit(JobSpec{DeadlineMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != JobCancelled {
		t.Fatalf("job finished %s, want cancelled", st)
	}
	if msg := j.Status().Error; !strings.Contains(msg, "deadline") {
		t.Fatalf("error %q does not name the deadline", msg)
	}
	// The worker survived: a fresh job on the same server still runs.
	j2, err := s.Submit(JobSpec{Workloads: []string{"xz"}, Renderers: []string{"table2"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j2); st != JobDone {
		t.Fatalf("follow-up job %s, want done", st)
	}
}

// TestPartialDegradation injects a panicking cell: the renderer that
// needs it fails, every other requested section renders byte-identical
// to golden, and the job reports done-with-failures.
func TestPartialDegradation(t *testing.T) {
	rules, err := fault.ParseRules("xz/rrs/1000=panic@once:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(o *Options) { o.Faults = rules })
	j, err := s.Submit(JobSpec{Workloads: []string{"xz", "wrf"}, Renderers: []string{"table2", "figure3"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != JobDone {
		t.Fatalf("job finished %s (%q), want done with partial output", st, j.Status().Error)
	}
	status := j.Status()
	if len(status.Failures) != 1 || !strings.HasPrefix(status.Failures[0], "figure3:") {
		t.Fatalf("failures = %v, want exactly figure3", status.Failures)
	}
	if got, want := j.Output(), goldenSection(t, "table2"); got != want {
		t.Fatalf("surviving section diverged from golden (%d vs %d bytes)", len(got), len(want))
	}
}

// TestWorkerKillHookFires: worker-kill arms are consumed by the harness
// hook at cell-start ordinals and stripped from the rules the simulator
// sees — output stays golden even though the kill plan matched.
func TestWorkerKillHookFires(t *testing.T) {
	rules, err := fault.ParseRules("*/*/*=worker-kill@once:1")
	if err != nil {
		t.Fatal(err)
	}
	var kills atomic.Int32
	s := newTestServer(t, func(o *Options) {
		o.CellParallel = 1
		o.Faults = rules
		o.Kill = func() { kills.Add(1) }
	})
	// figure3 is simulation-backed (analytic renderers like table2 start
	// no cell computes, so the hook would never see an ordinal).
	j, err := s.Submit(JobSpec{Workloads: []string{"xz", "wrf"}, Renderers: []string{"figure3"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != JobDone {
		t.Fatalf("job finished %s (%q), want done", st, j.Status().Error)
	}
	if kills.Load() != 1 {
		t.Fatalf("kill hook fired %d times, want 1", kills.Load())
	}
	if got, want := j.Output(), goldenSection(t, "figure3"); got != want {
		t.Fatal("worker-kill arm leaked into the simulator: output diverged from golden")
	}
}

// TestWorkerKillRequiresKillFunc: arming worker-kill without a Kill
// action is a configuration error, caught at New.
func TestWorkerKillRequiresKillFunc(t *testing.T) {
	rules, err := fault.ParseRules("*/*/*=worker-kill@once:0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Options{ServerID: "x", Clock: Clock{Now: time.Now}, Faults: rules})
	if err == nil || !strings.Contains(err.Error(), "Kill") {
		t.Fatalf("New = %v, want worker-kill/Kill config error", err)
	}
}

// TestDrain covers both shutdown modes: queued jobs cancel immediately;
// a running job that outlives the grace window is hard-cancelled and the
// server still unwinds cleanly; submissions after drain are refused.
func TestDrain(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.Queue = 4
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A deliberately huge job so it cannot finish inside the grace window.
	slow, err := s.Submit(JobSpec{WindowUS: 64_000})
	if err != nil {
		t.Fatal(err)
	}
	for slow.State() == JobQueued {
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(JobSpec{Workloads: []string{"xz"}, Renderers: []string{"table2"}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded (hard cancel)", err)
	}
	if st := slow.State(); st != JobCancelled {
		t.Fatalf("running job after hard cancel = %s, want cancelled", st)
	}
	if st := queued.State(); st != JobCancelled {
		t.Fatalf("queued job after drain = %s, want cancelled", st)
	}
	if msg := queued.Status().Error; !strings.Contains(msg, "shutdown") {
		t.Fatalf("queued job error %q does not name shutdown", msg)
	}
	if _, err := s.Submit(JobSpec{}); err != ErrDraining {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", r.StatusCode)
	}
	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (liveness != readiness)", r2.StatusCode)
	}
}
