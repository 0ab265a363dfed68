// Command perfbench is the repository benchmark. It drives the simulator
// only through its public calls — repro.Lab (over sim.Runner),
// cellcache.Store and farm.Server — on one of three workloads:
//
//	full_hot   lbm, gcc x {baseline, aqua-memmapped, rrs} at T_RH=1K over
//	           full 64 ms windows with calibration, serial, no cache:
//	           mitigation is active, so time goes to the run loop.
//	grid_cold  PaperGrid x 18 SPEC at a 4 ms window, min(2, nproc) wide,
//	           from a fresh on-disk cell cache and trace tier: 180 short
//	           cells, so time goes to per-cell construction, trace
//	           capture/replay, fan-out and cache writes.
//	serve_mix  an in-process farm.Server fed golden-sized jobs open-loop
//	           at a fixed rate, half repeats (cache reads) and half fresh
//	           seeds (simulation and cache writes): admission, queueing
//	           and job latency.
//
// Usage (from the repository root, after building with perfbench/run.sh):
//
//	perfbench --workload full_hot --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 measures the
// end-to-end metrics, timed in process CPU seconds because wall time on
// a shared host carries the hypervisor's steal; --trace 1 makes an
// untraced and a CPU-profiled pass and reports per-layer metrics, the
// wall-clock figures among them. The line before it is the host
// fingerprint; results whose CPU, nproc, GOMAXPROCS or Go version differ
// are not comparable.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string
	nproc    int
}

// Set-up is timed as setupReps samples of setupBatch back-to-back builds
// each, reporting the median per-build time: a single build is a few
// microseconds, below what one clock reading resolves steadily.
const (
	setupReps  = 401
	setupBatch = 50
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "full_hot, grid_cold or serve_mix")
	fs.Uint64Var(&o.seed, "seed", goldenSeed, "workload seed (0 means the default)")
	fs.IntVar(&o.seconds, "seconds", 30, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	update := fs.Bool("update-digests", false, "rewrite perfbench/digests.json from one default-seed pass of full_hot and grid_cold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.seed == 0 {
		o.seed = goldenSeed
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	o.nproc = runtime.NumCPU()
	o.workDir = filepath.Join(".bench_build", "work", o.workload)
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return fmt.Errorf("create work dir: %w", err)
	}
	if *update {
		return updateDigests(o)
	}

	fp := fingerprint()
	var res result
	var err error
	switch o.workload {
	case "full_hot":
		res, err = runLab(o, fullHotSpec(), fp.RefLoopNS)
	case "grid_cold":
		res, err = runLab(o, gridColdSpec(o.nproc), fp.RefLoopNS)
	case "serve_mix":
		res, err = runServe(o, fp.RefLoopNS)
	default:
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	if err := os.RemoveAll(o.workDir); err != nil {
		return fmt.Errorf("clean work dir: %w", err)
	}
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"fingerprint": fp}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	return w.Flush()
}

// hostFingerprint identifies the measuring host.
type hostFingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	RefLoopNS  float64 `json:"ref_loop_ns_per_iter"`
}

func fingerprint() hostFingerprint {
	return hostFingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		RefLoopNS:  refLoop(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// refSink keeps the reference loop's result live.
var refSink uint64

// refLoop times a fixed dependent xorshift loop and returns the median
// ns per iteration over five repetitions: a host speed reading that does
// not depend on the simulator.
func refLoop() float64 {
	const iters = 20_000_000
	var ts []float64
	for rep := 0; rep < 5; rep++ {
		x := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts = append(ts, float64(time.Since(start).Nanoseconds())/iters)
		refSink += x
	}
	return median(ts)
}

// allocatedMB is the total heap allocated by the process so far, in MB.
// Unlike resident size it does not depend on when the collector ran, so
// its difference over a pass is a steady measure of allocation volume.
func allocatedMB() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// cpuSeconds is the process's CPU time so far (user plus system, every
// thread). Time the hypervisor steals from the guest's vCPUs is not in
// it, unlike in wall time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// medianSetup times setupReps samples of setupBatch calls to build and
// returns the median seconds per call. prepare runs untimed before each
// sample (resetting on-disk state); each build returns a release function
// that runs untimed after the sample.
func medianSetup(prepare func() error, build func() (func() error, error)) (float64, error) {
	ts := make([]float64, 0, setupReps)
	releases := make([]func() error, 0, setupBatch)
	for i := 0; i < setupReps; i++ {
		if err := prepare(); err != nil {
			return 0, err
		}
		releases = releases[:0]
		start := time.Now()
		for j := 0; j < setupBatch; j++ {
			release, err := build()
			if err != nil {
				return 0, err
			}
			releases = append(releases, release)
		}
		ts = append(ts, time.Since(start).Seconds()/setupBatch)
		for _, release := range releases {
			if err := release(); err != nil {
				return 0, err
			}
		}
	}
	return median(ts), nil
}

// loadDigests returns the committed default-seed digests for a workload.
func loadDigests(workload string) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("decode digests: %w", err)
	}
	d, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("no committed digests for %s", workload)
	}
	return d, nil
}

// updateDigests regenerates digests.json from one default-seed pass of
// each Lab workload (run from the repository root).
func updateDigests(o options) error {
	all := map[string]map[string]string{}
	for name, spec := range map[string]labSpec{"full_hot": fullHotSpec(), "grid_cold": gridColdSpec(o.nproc)} {
		if err := spec.reset(o.workDir); err != nil {
			return err
		}
		env, err := spec.setup(goldenSeed, o.workDir)
		if err != nil {
			return err
		}
		p := spec.run(env)
		d := map[string]string{}
		for _, sp := range p.spans {
			if sp.err != nil {
				return fmt.Errorf("%s: %w", sp.key, sp.err)
			}
			d[sp.key] = digest(sp.run)
		}
		all[name] = d
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.RemoveAll(o.workDir); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "digests.json"), append(data, '\n'), 0o644)
}
