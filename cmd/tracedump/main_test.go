package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestInfo checks the info statistics of a v1 trace.
func TestInfo(t *testing.T) {
	recs := []trace.Record{
		{Row: 100, GapInstr: 5},
		{Row: 7, Write: true, GapInstr: 0},
		{Row: 100, GapInstr: 123456},
		{Row: 4096, Write: true, GapInstr: 1},
	}
	var buf bytes.Buffer
	if _, err := trace.Capture(&buf, trace.NewSliceStream(recs), 0); err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(t.TempDir(), "s.trace")
	if err := os.WriteFile(v1, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runInfo([]string{v1}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"records: 4\n",
		"distinct rows: 3\n",
		"writes: 2\n",
		"instructions: 123462\n",
		"hottest row: 100 (2 accesses)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("info output missing %q:\n%s", want, out.String())
		}
	}
}

// TestInfoDumpTruncated cuts a 1000-record workload trace short: info
// and dump must report the truncation as an error rather than print the
// decodable prefix as if it were the whole trace.
func TestInfoDumpTruncated(t *testing.T) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("gcc spec missing")
	}
	gen := workload.NewGenerator(spec, sim.VisibleRegion(sim.Config{}), 0, 1, workload.Params{})
	var buf bytes.Buffer
	if n, err := trace.Capture(&buf, gen.Stream(1000, 1), 1000); err != nil || n != 1000 {
		t.Fatalf("capture: %d records, %v", n, err)
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace")
	cut := filepath.Join(dir, "cut.trace")
	if err := os.WriteFile(full, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cut, buf.Bytes()[:600], 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runDump([]string{full}, &out); err != nil {
		t.Fatalf("dump of the intact trace: %v", err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 1000 {
		t.Fatalf("dump of the intact trace printed %d records, want 1000", lines)
	}
	for name, run := range map[string]func([]string, io.Writer) error{"info": runInfo, "dump": runDump} {
		out.Reset()
		if err := run([]string{cut}, &out); !errors.Is(err, trace.ErrTruncated) {
			t.Errorf("%s of a truncated trace: err = %v, want %v (output %d bytes)",
				name, err, trace.ErrTruncated, out.Len())
		}
	}
}
