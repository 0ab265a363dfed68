// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its table/figure through the
// shared Lab (results are cached across benchmarks, so the grid of
// (workload, scheme, threshold) simulations runs once per process) and
// prints the rows the paper reports. Headline numbers are also exported
// as benchmark metrics.
//
// Environment knobs:
//
//	REPRO_BENCH_WINDOW_MS  simulated window per run (default 64 = one full
//	                       refresh window, the paper's metric window)
//	REPRO_BENCH_WORKLOADS  "all" (default: 18 SPEC + 16 mixes) or "spec"
//	REPRO_BENCH_PAR        concurrent simulations (default 0 = one per
//	                       core; 1 = serial). Results are identical at any
//	                       setting — only wall-clock changes.
//
// The same tables are available interactively via cmd/figures. A quick
// benchmark configuration for contributors is `make bench-quick`
// (REPRO_BENCH_WINDOW_MS=4 REPRO_BENCH_WORKLOADS=spec).
package repro

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracker"
)

var (
	benchLab     *Lab
	benchLabOnce sync.Once
	printedOnce  sync.Map
)

// benchOptions reads the REPRO_BENCH_* environment into LabOptions.
func benchOptions() LabOptions {
	windowMS := 64
	if v := os.Getenv("REPRO_BENCH_WINDOW_MS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			windowMS = n
		}
	}
	workloads := AllWorkloads()
	if os.Getenv("REPRO_BENCH_WORKLOADS") == "spec" {
		workloads = SPECWorkloads()
	}
	parallel := 0
	if v := os.Getenv("REPRO_BENCH_PAR"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			parallel = n
		}
	}
	return LabOptions{
		Window:    dram.PS(windowMS) * dram.Millisecond,
		Workloads: workloads,
		Parallel:  parallel,
	}
}

func sharedLab() *Lab {
	benchLabOnce.Do(func() { benchLab = NewLab(benchOptions()) })
	return benchLab
}

// emit prints a regenerated table once per process.
func emit(name, table string) {
	if _, dup := printedOnce.LoadOrStore(name, true); !dup {
		fmt.Printf("\n%s\n", table)
	}
}

// labGmean computes the geometric-mean normalized IPC for a scheme cell
// across a lab's workloads.
func labGmean(l *Lab, scheme Scheme, trh int64) (float64, error) {
	var norms []float64
	for _, name := range l.opts.Workloads {
		r, err := l.Run(name, scheme, trh)
		if err != nil {
			return 0, err
		}
		norms = append(norms, r.NormIPC)
	}
	return stats.Geomean(norms), nil
}

// gmeanNormIPC extracts the geometric-mean normalized IPC for a scheme
// cell across the lab's workloads.
func gmeanNormIPC(b *testing.B, l *Lab, scheme Scheme, trh int64) float64 {
	b.Helper()
	gm, err := labGmean(l, scheme, trh)
	if err != nil {
		b.Fatal(err)
	}
	return gm
}

// --- Figures --------------------------------------------------------------

func BenchmarkFigure3RRSScaling(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure3", out)
	}
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeRRS, 1000))*100, "slowdown-rrs-1k-%")
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeRRS, 4000))*100, "slowdown-rrs-4k-%")
}

func BenchmarkFigure6Migrations(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure6", out)
	}
	var aqua, rrs float64
	for _, name := range l.opts.Workloads {
		a, err := l.Run(name, SchemeAquaMemMapped, 1000)
		if err != nil {
			b.Fatal(err)
		}
		r, err := l.Run(name, SchemeRRS, 1000)
		if err != nil {
			b.Fatal(err)
		}
		aqua += a.Result.MigrationsPer64ms
		rrs += r.Result.MigrationsPer64ms
	}
	n := float64(len(l.opts.Workloads))
	b.ReportMetric(aqua/n, "migr/64ms-aqua")
	b.ReportMetric(rrs/n, "migr/64ms-rrs")
}

func BenchmarkFigure7AquaPerformance(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure7", out)
	}
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeAquaSRAM, 1000))*100, "slowdown-aqua-%")
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeRRS, 1000))*100, "slowdown-rrs-%")
}

func BenchmarkFigure9MemoryMapped(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure9", out)
	}
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeAquaSRAM, 1000))*100, "slowdown-sram-%")
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeAquaMemMapped, 1000))*100, "slowdown-memmap-%")
}

func BenchmarkFigure10LookupBreakdown(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure10", out)
	}
	var bloom, dramFrac float64
	for _, name := range l.opts.Workloads {
		r, err := l.Run(name, SchemeAquaMemMapped, 1000)
		if err != nil {
			b.Fatal(err)
		}
		bd := sim.BreakdownOf(r.Result)
		bloom += bd.BloomFiltered
		dramFrac += bd.DRAM
	}
	n := float64(len(l.opts.Workloads))
	b.ReportMetric(bloom/n*100, "bloom-filtered-%")
	b.ReportMetric(dramFrac/n*100, "dram-lookups-%")
}

func BenchmarkFigure11Sensitivity(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure11", out)
	}
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeAquaMemMapped, 2000))*100, "slowdown-2k-%")
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeAquaMemMapped, 500))*100, "slowdown-500-%")
}

func BenchmarkFigure12AnalyticalModel(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Figure12()
	}
	emit("figure12", out)
}

func BenchmarkFigure2ThresholdTrend(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Figure2()
	}
	emit("figure2", out)
}

// --- Tables ----------------------------------------------------------------

func BenchmarkTable2Workloads(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Table2()
		if err != nil {
			b.Fatal(err)
		}
		emit("table2", out)
	}
}

func BenchmarkTable3QuarantineSize(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Table3()
	}
	emit("table3", out)
}

func BenchmarkTable4VictimRefresh(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Table4()
		if err != nil {
			b.Fatal(err)
		}
		emit("table4", out)
	}
}

func BenchmarkTable5CROW(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Table5()
	}
	emit("table5", out)
}

func BenchmarkTable6Comparison(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Table6()
		if err != nil {
			b.Fatal(err)
		}
		emit("table6", out)
	}
}

func BenchmarkTable7Storage(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Table7()
		out += "\n" + StorageReport()
	}
	emit("table7", out)
}

// --- Section VI-C: worst-case DoS bound -------------------------------------

func BenchmarkSection6CWorstCaseDoS(b *testing.B) {
	geom := BaselineGeometry()
	region := sim.VisibleRegion(sim.Config{})
	run := func(useAqua bool) dram.PS {
		rank := NewRank(geom, DDR4Timing())
		var mit mitigation.Mitigator = mitigation.None{}
		if useAqua {
			mit = core.New(rank, core.Config{TRH: 1000, Mode: core.ModeSRAM})
		}
		ctrl := memctrl.New(rank, mit, memctrl.Config{})
		s := attack.NewRotatingDoS(geom, region.VisibleRowsPerBank, 500, 200_000)
		c := cpu.New(0, s, cpu.Config{MLP: 4})
		for {
			at, ok := c.NextIssueTime()
			if !ok {
				break
			}
			c.Issue(at, ctrl.Submit)
		}
		return c.FinishTime()
	}
	var slowdown float64
	for i := 0; i < b.N; i++ {
		base := run(false)
		aqua := run(true)
		slowdown = float64(aqua) / float64(base)
	}
	b.ReportMetric(slowdown, "dos-slowdown-x")
	emit("section6c", fmt.Sprintf(
		"Section VI-C worst-case DoS: measured %.2fx (analytical bound 2.95x)", slowdown))
}

// --- Microbenchmarks on the core data structures ----------------------------

func BenchmarkAquaTranslateSRAM(b *testing.B) {
	rank := NewBaselineRank()
	eng := core.New(rank, core.Config{TRH: 1000, Mode: core.ModeSRAM})
	visible := eng.VisibleRowsPerBank()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Translate(dram.Row(i%visible), 0)
	}
}

func BenchmarkAquaTranslateMemMapped(b *testing.B) {
	rank := NewBaselineRank()
	eng := core.New(rank, core.Config{TRH: 1000, Mode: core.ModeMemMapped})
	visible := eng.VisibleRowsPerBank()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Translate(dram.Row(i%visible), 0)
	}
}

func BenchmarkControllerSubmit(b *testing.B) {
	rank := NewBaselineRank()
	eng := core.New(rank, core.Config{TRH: 1000, Mode: core.ModeMemMapped})
	ctrl := memctrl.New(rank, eng, memctrl.Config{})
	geom := rank.Geometry()
	at := dram.PS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = ctrl.Submit(geom.RowOf(i%16, i%100000), false, at)
	}
}

func BenchmarkSection5FSensitivity(b *testing.B) {
	l := sharedLab()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = l.SensitivityVF()
		if err != nil {
			b.Fatal(err)
		}
	}
	emit("section5f", out)
}

func BenchmarkSection5HPower(b *testing.B) {
	l := sharedLab()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = l.PowerReport()
		if err != nil {
			b.Fatal(err)
		}
	}
	emit("section5h", out)
}

// BenchmarkAblationProactiveDrain quantifies the Section IV-D note: with
// background draining, a quarantine whose destination slot holds a stale
// entry pays ~1.37us on the critical path instead of ~2.74us.
func BenchmarkAblationProactiveDrain(b *testing.B) {
	geom := dram.Geometry{Banks: 4, RowsPerBank: 512, RowBytes: 1024, LineBytes: 64}
	measure := func(drain bool) dram.PS {
		rank := dram.NewRank(geom, DDR4Timing())
		eng := core.New(rank, core.Config{
			TRH: 40, Mode: core.ModeSRAM, RQARows: 8,
			Tracker:        tracker.NewExact(geom, 20),
			ProactiveDrain: drain,
		})
		at := dram.PS(0)
		hammerOnce := func(row dram.Row) dram.PS {
			var busy dram.PS
			for i := 0; i < 20; i++ {
				tr := eng.Translate(row, at)
				busy += eng.OnActivate(tr.PhysRow, at)
				at += 50 * dram.Nanosecond
			}
			return busy
		}
		// Epoch 0: fill all 8 slots.
		for i := 0; i < 8; i++ {
			hammerOnce(geom.RowOf(i%4, 1+i/4))
		}
		eng.OnEpoch(64 * dram.Millisecond)
		at = 65 * dram.Millisecond
		if drain {
			for eng.OnIdle(at) > 0 {
				at += 10 * dram.Microsecond
			}
		}
		// Epoch 1: the next quarantines reuse stale slots; without the
		// drain each pays an eviction on the critical path.
		var busy dram.PS
		for i := 0; i < 4; i++ {
			busy += hammerOnce(geom.RowOf(i, 100+i))
		}
		return busy
	}
	var with, without dram.PS
	for i := 0; i < b.N; i++ {
		without = measure(false)
		with = measure(true)
	}
	b.ReportMetric(float64(without)/1e3, "critical-ns-no-drain")
	b.ReportMetric(float64(with)/1e3, "critical-ns-drained")
	emit("ablation-drain", fmt.Sprintf(
		"Ablation (Section IV-D): critical-path busy for 4 quarantines over stale slots:\n"+
			"  without proactive drain: %.2f us\n  with proactive drain:    %.2f us",
		float64(without)/1e6, float64(with)/1e6))
}
