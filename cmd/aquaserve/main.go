// Command aquaserve runs the crash-tolerant experiment farm as an HTTP
// service (see internal/farm and DESIGN.md "Service architecture &
// failure domains").
//
// Usage:
//
//	aquaserve -addr :8080                 # listen address (:0 = ephemeral)
//	aquaserve -id lab-a                   # server identity (job IDs)
//	aquaserve -queue 8 -workers 2         # admission bound and worker pool
//	aquaserve -cell-parallel 1            # per-job cell parallelism (0 = all cores)
//	aquaserve -cache-dir /shared/cells    # shared content-addressed result store
//	aquaserve -deadline 10m               # default per-job deadline
//	aquaserve -drain-timeout 30s          # graceful-shutdown grace window
//	aquaserve -retry-after 2s             # backoff hint on shed (429) responses
//	aquaserve -seed 0x41515541            # root seed for fault arms
//
// Chaos harness hooks (driven by cmd/aquaload):
//
//	aquaserve -faults '*/*/*=worker-kill@once:2'
//
// worker-kill arms SIGKILL this process at the matching cell-start
// ordinal — the hard crash the shared cache must survive: a successor
// serves every finished cell from it and simulates only the rest. All
// other fault kinds pass through to the simulator.
//
// On startup the resolved listen address is printed to stdout as
// "aquaserve listening on http://<addr>" (ephemeral ports become
// concrete), which is what aquaload's process harness parses. SIGINT or
// SIGTERM begins a drain: /readyz flips to 503, queued jobs cancel,
// running jobs get the drain window, then everything hard-cancels.
// Completed cells are durable in the cache either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/farm"
	"repro/internal/fault"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aquaserve: ")

	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address (:0 = ephemeral port)")
		id           = flag.String("id", "aquaserve", "server identity used in job IDs")
		queue        = flag.Int("queue", 8, "admission queue bound (full queue sheds with 429)")
		workers      = flag.Int("workers", 2, "concurrent jobs")
		cellParallel = flag.Int("cell-parallel", 0, "per-job cell parallelism (0 = all cores)")
		cacheDir     = flag.String("cache-dir", "", "shared result-store directory (empty = in-memory)")
		deadline     = flag.Duration("deadline", 10*time.Minute, "default per-job deadline")
		drainT       = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown grace window")
		retryAfter   = flag.Duration("retry-after", 2*time.Second, "Retry-After hint on shed responses")
		seed         = flag.Uint64("seed", 0x41515541, "root seed for fault arms")
		faultSpec    = flag.String("faults", "", "fault rules (worker-kill arms crash this process; rest reach the simulator)")
	)
	flag.Parse()

	var rules *fault.Rules
	if *faultSpec != "" {
		var err error
		rules, err = fault.ParseRules(*faultSpec)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
	}

	srv, err := farm.New(farm.Options{
		ServerID:        *id,
		Queue:           *queue,
		Workers:         *workers,
		CellParallel:    *cellParallel,
		DefaultDeadline: *deadline,
		RetryAfter:      *retryAfter,
		CacheDir:        *cacheDir,
		Faults:          rules,
		Seed:            *seed,
		Clock:           farm.Clock{Now: time.Now},
		Kill:            killSelf,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The harness contract: exactly one stdout line announcing the
	// resolved address, then silence (logs go to stderr).
	fmt.Printf("aquaserve listening on http://%s\n", ln.Addr())
	os.Stdout.Sync()

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	case sig := <-sigCh:
		log.Printf("%s: draining (grace %s)", sig, *drainT)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v (running jobs hard-cancelled)", err)
	} else {
		log.Printf("drained cleanly")
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	<-serveErr
}

// killSelf is the worker-kill action: SIGKILL this process, no unwind,
// no deferred cleanup — the genuine crash the recovery machinery is
// tested against. os.Process.Kill delivers an uncatchable SIGKILL.
func killSelf() {
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		log.Fatalf("worker-kill: %v", err)
	}
	log.Printf("worker-kill fault: SIGKILL self")
	_ = p.Kill()
	// The signal is asynchronous; don't let the cell keep computing in
	// the gap.
	select {}
}
