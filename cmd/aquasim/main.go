// Command aquasim runs one workload under one Rowhammer mitigation scheme
// on the baseline 16GB DDR4 system and reports performance and mitigation
// statistics.
//
// Usage:
//
//	aquasim -workload lbm -scheme aqua-memmapped -trh 1000
//	aquasim -workload mix03 -scheme rrs -trh 1000 -window 16
//	aquasim -faults '*/*/*=ecc-flip@p:0.01' -workload lbm
//	aquasim -timeout 2m -workload mix03
//	aquasim -cache-dir ~/.cache/aqua -workload lbm   # persist + reuse results
//	aquasim -list
//
// Schemes: baseline, aqua-sram, aqua-memmapped, rrs, blockhammer,
// victim-refresh.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/cellcache"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mitigation"
	"repro/internal/sim"
)

var schemes = map[string]repro.Scheme{
	"baseline":       repro.SchemeBaseline,
	"aqua-sram":      repro.SchemeAquaSRAM,
	"aqua-memmapped": repro.SchemeAquaMemMapped,
	"rrs":            repro.SchemeRRS,
	"blockhammer":    repro.SchemeBlockhammer,
	"victim-refresh": repro.SchemeVictimRefresh,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("aquasim: ")

	workload := flag.String("workload", "lbm", "workload name (SPEC name or mixNN)")
	scheme := flag.String("scheme", "aqua-memmapped", "mitigation scheme")
	trh := flag.Int64("trh", 1000, "Rowhammer threshold T_RH")
	windowMS := flag.Int("window", 64, "simulated window in ms")
	seed := flag.Uint64("seed", 0, "experiment seed")
	faultSpec := flag.String("faults", "", "fault-injection rules, e.g. 'lbm/aqua-memmapped/1000=ecc-flip@p:0.01'")
	timeout := flag.Duration("timeout", 0, "cancel the run after this wall-clock duration (0 = none)")
	cacheDir := flag.String("cache-dir", "", "directory for the on-disk tier of the result cache (in-memory by default), shared with cmd/figures")
	noCache := flag.Bool("no-cache", false, "disable the result cache entirely (overrides -cache-dir)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	list := flag.Bool("list", false, "list workloads and schemes")
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, n := range repro.AllWorkloads() {
			fmt.Println("  ", n)
		}
		fmt.Println("schemes:")
		names := make([]string, 0, len(schemes))
		for n := range schemes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println("  ", n)
		}
		return
	}

	sch, ok := schemes[*scheme]
	if !ok {
		log.Fatalf("unknown scheme %q (try -list)", *scheme)
	}

	rules, err := fault.ParseRules(*faultSpec)
	if err != nil {
		log.Fatalf("-faults: %v", err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	runner, err := sim.NewRunnerE(sim.ExpConfig{
		Window:    dram.PS(*windowMS) * dram.Millisecond,
		Seed:      *seed,
		Calibrate: true,
		Faults:    rules,
	})
	if err != nil {
		log.Fatal(err)
	}
	useCache := !*noCache
	if useCache {
		store, err := cellcache.New(*cacheDir)
		if err != nil {
			log.Fatalf("-cache-dir: %v", err)
		}
		runner.AttachCellCache(store)
	}

	start := time.Now()
	run, err := runner.RunCtx(ctx, *workload, sch, *trh)
	if err != nil {
		var ce *sim.CellError
		if errors.As(err, &ce) && len(ce.Stack) > 0 {
			log.Printf("%v", ce)
			log.Fatalf("recovered panic stack:\n%s", ce.Stack)
		}
		log.Fatal(err)
	}

	res := run.Result
	if *jsonOut {
		bd := sim.BreakdownOf(res)
		out := map[string]interface{}{
			"workload":         *workload,
			"scheme":           sch.String(),
			"trh":              *trh,
			"sim_time_ms":      float64(res.SimTime) / 1e9,
			"instructions":     res.Instr,
			"requests":         res.Requests,
			"ipc":              res.IPC,
			"normalized_ipc":   run.NormIPC,
			"slowdown_pct":     (1/run.NormIPC - 1) * 100,
			"avg_latency_ns":   float64(res.CtrlStats.AvgLatency()) / 1e3,
			"mitigations":      res.MitStats.Mitigations,
			"row_migrations":   res.MitStats.RowMigrations,
			"migrations_per64": res.MigrationsPer64ms,
			"evictions":        res.MitStats.Evictions,
			"channel_busy_ms":  float64(res.MitStats.ChannelBusy) / 1e9,
			"dram_power_mw":    res.DRAMPowerMW,
			"lookup_breakdown": map[string]float64{
				"bloom_filtered": bd.BloomFiltered,
				"cache_hit":      bd.CacheHit,
				"singleton":      bd.Singleton,
				"dram":           bd.DRAM,
			},
			"wall_time":       time.Since(start).String(),
			"faults_injected": res.FaultStats.Injected,
		}
		if useCache {
			cs := runner.CellStats()
			out["cache_hits"] = cs.CacheHits
			out["cache_misses"] = cs.CacheMisses
			out["cache_deduped"] = cs.Deduped()
			out["cache_simulated"] = cs.Simulated
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("workload        %s\n", *workload)
	fmt.Printf("scheme          %s (T_RH=%d)\n", sch, *trh)
	fmt.Printf("simulated time  %.2f ms\n", float64(res.SimTime)/1e9)
	fmt.Printf("instructions    %d\n", res.Instr)
	fmt.Printf("requests        %d\n", res.Requests)
	fmt.Printf("IPC             %.3f\n", res.IPC)
	fmt.Printf("normalized IPC  %.3f (slowdown %.1f%%)\n", run.NormIPC, (1/run.NormIPC-1)*100)
	fmt.Printf("avg latency     %.1f ns\n", float64(res.CtrlStats.AvgLatency())/1e3)

	st := res.MitStats
	if sch != repro.SchemeBaseline {
		fmt.Printf("mitigations     %d\n", st.Mitigations)
		fmt.Printf("row migrations  %d (%.0f per 64ms)\n", st.RowMigrations, res.MigrationsPer64ms)
		fmt.Printf("evictions       %d\n", st.Evictions)
		fmt.Printf("channel busy    %.2f ms (mitigation)\n", float64(st.ChannelBusy)/1e9)
		if st.ThrottleDelay > 0 {
			fmt.Printf("throttle delay  %.2f ms\n", float64(st.ThrottleDelay)/1e9)
		}
		if total := st.TotalLookups(); total > 0 && sch == repro.SchemeAquaMemMapped {
			bd := sim.BreakdownOf(res)
			fmt.Printf("FPT lookups     %.1f%% bloom-filtered, %.1f%% cache hits, %.2f%% singleton, %.3f%% DRAM\n",
				bd.BloomFiltered*100, bd.CacheHit*100, bd.Singleton*100, bd.DRAM*100)
		}
		var classes string
		for c := mitigation.LookupClass(0); c < mitigation.NumLookupClasses; c++ {
			if st.Lookups[c] > 0 {
				classes += fmt.Sprintf(" %s=%d", c, st.Lookups[c])
			}
		}
		if classes != "" {
			fmt.Printf("lookup classes %s\n", classes)
		}
	}
	if fs := res.FaultStats; fs.Injected > 0 {
		fmt.Printf("faults injected %d (migration aborts %d, overflow fallbacks %d, refresh collisions %d)\n",
			fs.Injected, st.MigrationAborts, st.OverflowFallbacks, res.CtrlStats.RefreshCollisions)
	}
	if useCache {
		if cs := runner.CellStats(); cs.Requests > 0 {
			fmt.Printf("result cache    %d hits, %d misses, %d simulated\n",
				cs.CacheHits, cs.CacheMisses, cs.Simulated)
		}
	}
	fmt.Printf("wall time       %s\n", time.Since(start).Round(time.Millisecond))
}
