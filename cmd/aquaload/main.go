// Command aquaload is the load-test and chaos harness for aquaserve
// (internal/farm). It has two modes:
//
//	aquaload -mode load -serve-bin bin/aquaserve -golden testdata/lab_golden.txt \
//	         -n 100 -c 16 -expect-shed
//
// Load mode drives many concurrent, overlapping golden-grid jobs at one
// server (an existing one via -server, or a child it spawns via
// -serve-bin). Submissions shed with 429 are retried with deterministic
// seeded backoff (honouring Retry-After), and every completed job's
// output must be byte-identical to the committed golden file — under
// full overload, the farm may delay work but never corrupt it.
//
//	aquaload -mode chaos -serve-bin bin/aquaserve -golden testdata/lab_golden.txt
//
// Chaos mode is the crash-recovery acceptance test: it spawns server A
// armed with a worker-kill fault (SIGKILL at the -kill-at cell-start
// ordinal), submits the golden grid, and lets A die mid-grid holding a
// compute lease. It then spawns server B on the same cache directory,
// resubmits the identical job, and requires B to complete it
// byte-identical to golden — serving A's durable cells from the cache and
// reclaiming A's expired lease instead of wedging. /stats must show the
// reclaim and the cache handoff.
//
// Exit status 0 iff every assertion holds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/farm"
)

var (
	mode      = flag.String("mode", "load", "load | chaos")
	serverURL = flag.String("server", "", "existing server base URL (load mode; empty = spawn one)")
	serveBin  = flag.String("serve-bin", "", "path to the aquaserve binary to spawn")
	golden    = flag.String("golden", "", "path to the expected full-grid output (testdata/lab_golden.txt)")
	nJobs     = flag.Int("n", 100, "total jobs to submit (load mode)")
	conc      = flag.Int("c", 16, "concurrent clients (load mode)")
	expShed   = flag.Bool("expect-shed", false, "fail unless at least one submission shed with 429")
	seed      = flag.Uint64("seed", 0x41515541, "client backoff seed")
	timeout   = flag.Duration("timeout", 3*time.Minute, "overall harness deadline")
	killAt    = flag.Int("kill-at", 2, "cell-start ordinal where server A SIGKILLs itself (chaos mode)")
	leaseTTL  = flag.Duration("lease-ttl", 2*time.Second, "lease TTL for spawned servers")
	srvQueue  = flag.Int("serve-queue", 4, "queue bound for the spawned server (load mode)")
	srvWork   = flag.Int("serve-workers", 2, "workers for the spawned server (load mode)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aquaload: ")
	flag.Parse()
	if *golden == "" {
		log.Fatal("-golden is required")
	}
	want, err := os.ReadFile(*golden)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var ok bool
	switch *mode {
	case "load":
		ok = runLoad(ctx, string(want))
	case "chaos":
		ok = runChaos(ctx, string(want))
	default:
		log.Fatalf("unknown -mode %q", *mode)
	}
	if !ok {
		os.Exit(1)
	}
}

// ---- child-process harness ----

// child is one spawned aquaserve process.
type child struct {
	cmd     *exec.Cmd
	base    string
	waitErr error         // valid after dead is closed
	dead    chan struct{} // closed once Wait returns (safe to receive repeatedly)
}

// spawn starts an aquaserve child and parses its stdout listen line.
func spawn(ctx context.Context, name string, extra ...string) (*child, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-id", name}, extra...)
	cmd := exec.Command(*serveBin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, dead: make(chan struct{})}
	go func() { c.waitErr = cmd.Wait(); close(c.dead) }()

	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "aquaserve listening on ") {
				select {
				case lines <- strings.TrimPrefix(line, "aquaserve listening on "):
				default:
				}
			}
		}
	}()
	select {
	case c.base = <-lines:
		return c, nil
	case <-c.dead:
		return nil, fmt.Errorf("%s exited before listening: %v", name, c.waitErr)
	case <-ctx.Done():
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("%s: no listen line before deadline", name)
	}
}

// stop drains the child gracefully (SIGTERM) and waits for exit.
func (c *child) stop() {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.dead:
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.dead
	}
}

// ---- HTTP client helpers ----

type submitAck struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"`
}

// submitOnce POSTs one golden-spec job; on 429/503 it returns
// (ack zero, retryAfter, nil).
func submitOnce(ctx context.Context, base string) (submitAck, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", strings.NewReader(`{}`))
	if err != nil {
		return submitAck{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return submitAck{}, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var ack submitAck
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return submitAck{}, 0, err
		}
		return ack, 0, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return submitAck{}, time.Duration(ra) * time.Second, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return submitAck{}, 0, fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
}

// awaitJob polls until the job leaves queued/running.
func awaitJob(ctx context.Context, base, id string) (farm.JobStatus, error) {
	for {
		var st farm.JobStatus
		if err := getJSON(ctx, base+"/jobs/"+id, &st); err != nil {
			return st, err
		}
		if st.State != farm.JobQueued && st.State != farm.JobRunning {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getOutput(ctx context.Context, base, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/output", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET output: %s: %s", resp.Status, body)
	}
	if p := resp.Header.Get("X-Aqua-Partial"); p != "" {
		return "", fmt.Errorf("output flagged partial (%s)", p)
	}
	return string(body), nil
}

// ---- load mode ----

func runLoad(ctx context.Context, want string) bool {
	base := *serverURL
	if base == "" {
		if *serveBin == "" {
			log.Fatal("load mode needs -server or -serve-bin")
		}
		dir, err := os.MkdirTemp("", "aquaload-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		c, err := spawn(ctx, "load-target",
			"-queue", strconv.Itoa(*srvQueue),
			"-workers", strconv.Itoa(*srvWork),
			"-cache-dir", filepath.Join(dir, "cells"),
			"-lease-ttl", leaseTTL.String(),
			"-retry-after", "1s")
		if err != nil {
			log.Fatal(err)
		}
		defer c.stop()
		base = c.base
	}

	var shed, retriesGiven, mismatches, failures atomic.Int64
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if err := oneLoadJob(ctx, base, idx, want, &shed); err != nil {
					if ctx.Err() != nil {
						return
					}
					if strings.Contains(err.Error(), "diverged") {
						mismatches.Add(1)
					} else if strings.Contains(err.Error(), "retries exhausted") {
						retriesGiven.Add(1)
					} else {
						failures.Add(1)
					}
					log.Printf("job %d: %v", idx, err)
				}
			}
		}()
	}
	for i := 0; i < *nJobs; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()

	log.Printf("load: %d jobs, %d clients: shed submissions %d, mismatches %d, failures %d, retry-exhausted %d",
		*nJobs, *conc, shed.Load(), mismatches.Load(), failures.Load(), retriesGiven.Load())
	ok := mismatches.Load() == 0 && failures.Load() == 0 && retriesGiven.Load() == 0 && ctx.Err() == nil
	if *expShed && shed.Load() == 0 {
		log.Printf("FAIL: expected admission control to shed at least once")
		ok = false
	}
	if ok {
		log.Printf("PASS: every completed job byte-identical to golden under overload")
	}
	return ok
}

// oneLoadJob submits with seeded-backoff retry, waits, and verifies the
// output bytes.
func oneLoadJob(ctx context.Context, base string, idx int, want string, shed *atomic.Int64) error {
	backoff := farm.NewBackoff(*seed, fmt.Sprintf("client-%d", idx), 50*time.Millisecond, 2*time.Second)
	var ack submitAck
	for {
		if backoff.Attempt() >= 120 {
			return fmt.Errorf("retries exhausted after %d sheds", backoff.Attempt())
		}
		a, retryAfter, err := submitOnce(ctx, base)
		if err != nil {
			return err
		}
		if a.ID != "" {
			ack = a
			break
		}
		shed.Add(1)
		d := backoff.Next()
		if retryAfter > d {
			d = retryAfter
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
	st, err := awaitJob(ctx, base, ack.ID)
	if err != nil {
		return err
	}
	if st.State != farm.JobDone {
		return fmt.Errorf("finished %s (error %q, failures %v)", st.State, st.Error, st.Failures)
	}
	out, err := getOutput(ctx, base, ack.ID)
	if err != nil {
		return err
	}
	if out != want {
		return fmt.Errorf("output diverged from golden (%d vs %d bytes)", len(out), len(want))
	}
	return nil
}

// ---- chaos mode ----

func runChaos(ctx context.Context, want string) bool {
	if *serveBin == "" {
		log.Fatal("chaos mode needs -serve-bin")
	}
	dir, err := os.MkdirTemp("", "aquachaos-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cacheDir := filepath.Join(dir, "cells")
	shared := []string{
		"-workers", "1", "-cell-parallel", "1", "-queue", "4",
		"-cache-dir", cacheDir,
		"-lease-ttl", leaseTTL.String(),
		"-seed", strconv.FormatUint(*seed, 10),
	}

	// Server A: armed to SIGKILL itself at the kill-at'th cell start —
	// after claiming that cell's lease, before storing its result.
	a, err := spawn(ctx, "crash", append([]string{
		"-faults", fmt.Sprintf("*/*/*=worker-kill@once:%d", *killAt),
	}, shared...)...)
	if err != nil {
		log.Fatal(err)
	}
	defer a.stop()
	ackA, retryAfter, err := submitOnce(ctx, a.base)
	if err != nil || ackA.ID == "" {
		log.Fatalf("submit to A: id=%q retryAfter=%v err=%v", ackA.ID, retryAfter, err)
	}
	log.Printf("submitted %s to server A (key %.12s…); awaiting SIGKILL at cell ordinal %d", ackA.ID, ackA.Key, *killAt)

	select {
	case <-a.dead:
		log.Printf("server A died mid-grid as armed: %v", a.waitErr)
		if a.waitErr == nil {
			log.Printf("FAIL: server A exited cleanly; expected SIGKILL")
			return false
		}
	case <-ctx.Done():
		log.Printf("FAIL: server A still alive at harness deadline")
		return false
	}

	// Server B: same cache directory, no faults. The duplicate job must
	// serve A's durable cells from the cache and reclaim A's orphaned
	// leases once they expire.
	b, err := spawn(ctx, "resume", shared...)
	if err != nil {
		log.Fatal(err)
	}
	defer b.stop()
	ackB, _, err := submitOnce(ctx, b.base)
	if err != nil || ackB.ID == "" {
		log.Fatalf("submit to B: %v", err)
	}
	if ackB.Key != ackA.Key {
		log.Fatalf("FAIL: duplicate job key mismatch: %s vs %s", ackB.Key, ackA.Key)
	}
	st, err := awaitJob(ctx, b.base, ackB.ID)
	if err != nil {
		log.Fatalf("awaiting B's job: %v", err)
	}
	if st.State != farm.JobDone || len(st.Failures) != 0 {
		log.Printf("FAIL: B's job finished %s (error %q, failures %v)", st.State, st.Error, st.Failures)
		return false
	}
	out, err := getOutput(ctx, b.base, ackB.ID)
	if err != nil {
		log.Printf("FAIL: %v", err)
		return false
	}

	ok := true
	if out != want {
		log.Printf("FAIL: resumed output diverged from golden (%d vs %d bytes)", len(out), len(want))
		ok = false
	} else {
		log.Printf("resumed job byte-identical to golden (%d bytes)", len(out))
	}
	var stats farm.StatsSnapshot
	if err := getJSON(ctx, b.base+"/stats", &stats); err != nil {
		log.Printf("FAIL: stats: %v", err)
		return false
	}
	log.Printf("server B stats: simulated %d, cache hits %d, lease reclaims %d, lease waits %d",
		stats.Cells.Simulated, stats.Cells.CacheHits, stats.Leases.Reclaimed, stats.Cells.LeaseWaits)
	if stats.Leases.Reclaimed < 1 {
		log.Printf("FAIL: B never reclaimed A's orphaned lease")
		ok = false
	}
	if stats.Cells.CacheHits < 1 {
		log.Printf("FAIL: no crash handoff: B served none of A's cached cells")
		ok = false
	}
	// "No cell computed more than twice": A computed each cell at most
	// once before dying; B's lab memoizes per cell, so Simulated counts
	// each at most once more. A regression here would show as B
	// simulating more cells than the grid holds.
	if stats.Cells.Simulated > stats.Cells.Requests {
		log.Printf("FAIL: B simulated %d cells for %d requests", stats.Cells.Simulated, stats.Cells.Requests)
		ok = false
	}
	if ok {
		log.Printf("PASS: crash mid-grid recovered via lease expiry + cache resume")
	}
	return ok
}
