// Command tracedump records, inspects, and replays memory request traces
// (the reproducible-artifact format of internal/trace).
//
// Usage:
//
//	tracedump record -workload gcc -n 100000 -o gcc.trace   # synthesize + save
//	tracedump record -attack double-sided -o atk.trace      # attack pattern
//	tracedump info gcc.trace                                # header + stats
//	tracedump dump gcc.trace | head                         # one line per record
//	tracedump replay gcc.trace -scheme aqua-memmapped       # run through a scheme
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracedump: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: tracedump record|info|dump|replay ...")
	}
	var err error
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:], os.Stdout)
	case "dump":
		err = runDump(os.Args[2:], os.Stdout)
	case "replay":
		replay(os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		log.Fatal(err)
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("workload", "", "workload name to synthesize")
	atk := fs.String("attack", "", "attack pattern (single-sided, double-sided, adaptive, dos)")
	n := fs.Int64("n", 100_000, "records to capture")
	core := fs.Int("core", 0, "core index (rate-copy hot-row placement)")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		log.Fatal("record: -o is required")
	}

	region := sim.VisibleRegion(sim.Config{})
	geom := region.Geom
	var stream cpu.Stream
	switch {
	case *wl != "" && *atk != "":
		log.Fatal("record: -workload and -attack are mutually exclusive")
	case *wl != "":
		spec, ok := workload.ByName(*wl)
		if !ok {
			log.Fatalf("unknown workload %q", *wl)
		}
		gen := workload.NewGenerator(spec, region, *core, *seed, workload.Params{})
		stream = gen.Stream(*n, *seed)
	case *atk != "":
		switch *atk {
		case "single-sided":
			stream = attack.SingleSided(geom, geom.RowOf(0, 777), region.VisibleRowsPerBank, *n/2)
		case "double-sided":
			stream = attack.DoubleSided(geom, geom.RowOf(3, 5000), *n/2)
		case "adaptive":
			stream = attack.AdaptiveHammer(geom, geom.RowOf(0, 42), region.VisibleRowsPerBank, *n/17)
		case "dos":
			stream = attack.NewRotatingDoS(geom, region.VisibleRowsPerBank, 500, *n)
		default:
			log.Fatalf("unknown attack %q", *atk)
		}
	default:
		log.Fatal("record: need -workload or -attack")
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	written, err := trace.Capture(f, stream, *n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d records to %s\n", written, *out)
}

// openV1 opens a v1 binary trace; the caller closes the file.
func openV1(path string) (*trace.Reader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := trace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// eachRecord calls fn on every record of a v1 trace. It stops only at
// the declared end; any other read error — a truncated or corrupt trace
// — is returned, never mistaken for the end.
func eachRecord(r *trace.Reader, fn func(trace.Record)) error {
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(rec)
	}
}

// runInfo prints a v1 trace's header and access statistics.
func runInfo(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("info: need a trace file")
	}
	r, f, err := openV1(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	geom := repro.BaselineGeometry()
	rows := make(map[dram.Row]int64)
	banks := make(map[int]int64)
	var writes, instr int64
	err = eachRecord(r, func(rec trace.Record) {
		rows[rec.Row]++
		if geom.Contains(rec.Row) {
			banks[geom.BankOf(rec.Row)]++
		}
		if rec.Write {
			writes++
		}
		instr += rec.GapInstr
	})
	if err != nil {
		return err
	}
	var hottest dram.Row
	var hot int64
	for row, n := range rows {
		if n > hot || (n == hot && row < hottest) {
			hottest, hot = row, n
		}
	}
	fmt.Fprintf(stdout, "records: %d\n", r.Header().Records)
	fmt.Fprintf(stdout, "distinct rows: %d\n", len(rows))
	fmt.Fprintf(stdout, "banks touched: %d\n", len(banks))
	fmt.Fprintf(stdout, "writes: %d\n", writes)
	fmt.Fprintf(stdout, "instructions: %d\n", instr)
	fmt.Fprintf(stdout, "hottest row: %d (%d accesses)\n", hottest, hot)
	return nil
}

// runDump prints a v1 trace one "R|W <row> <gap>" line per record. It
// reads the whole trace first, so a truncated trace prints nothing.
func runDump(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("dump: need a trace file")
	}
	r, f, err := openV1(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	var recs []trace.Record
	if err := eachRecord(r, func(rec trace.Record) { recs = append(recs, rec) }); err != nil {
		return err
	}
	bw := bufio.NewWriter(stdout)
	for _, rec := range recs {
		op := "R"
		if rec.Write {
			op = "W"
		}
		fmt.Fprintf(bw, "%s %d %d\n", op, rec.Row, rec.GapInstr)
	}
	return bw.Flush()
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	scheme := fs.String("scheme", "aqua-memmapped", "mitigation scheme")
	trh := fs.Int64("trh", 1000, "Rowhammer threshold")
	fs.Parse(args)
	if fs.NArg() < 1 {
		log.Fatal("replay: need a trace file")
	}
	r, f, err := openV1(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	rank := repro.NewBaselineRank()
	var mit mitigation.Mitigator
	switch *scheme {
	case "baseline":
		mit = mitigation.None{}
	case "aqua-sram":
		mit = repro.NewAqua(rank, repro.AquaConfig{TRH: *trh, Mode: repro.ModeSRAM})
	case "aqua-memmapped":
		mit = repro.NewAqua(rank, repro.AquaConfig{TRH: *trh, Mode: repro.ModeMemMapped})
	case "rrs":
		mit = repro.NewRRS(rank, repro.RRSConfig{TRH: *trh})
	default:
		log.Fatalf("unknown scheme %q", *scheme)
	}
	mon := repro.NewSecurityMonitor(rank, int(*trh))
	ctrl := memctrl.New(rank, mit, memctrl.Config{})
	c := cpu.New(0, r, cpu.Config{})
	for {
		at, ok := c.NextIssueTime()
		if !ok {
			break
		}
		c.Issue(at, ctrl.Submit)
	}
	if r.Err() != nil {
		log.Fatal(r.Err())
	}
	st := mit.Stats()
	fmt.Printf("scheme          %s\n", mit.Name())
	fmt.Printf("simulated time  %.3f ms\n", float64(c.FinishTime())/1e9)
	fmt.Printf("instructions    %d\n", c.InstrRetired())
	fmt.Printf("IPC             %.3f\n", c.IPC(c.FinishTime()))
	fmt.Printf("mitigations     %d (migrations %d)\n", st.Mitigations, st.RowMigrations)
	if mon.Violated() {
		v := mon.Violations()[0]
		fmt.Printf("VIOLATED        row %d reached %d ACTs\n", v.Row, v.Count)
	} else {
		fmt.Printf("invariant held\n")
	}
}
