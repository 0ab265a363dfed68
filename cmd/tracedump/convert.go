package main

// The convert subcommand. It auto-detects the input container (text or
// v1 binary) from its leading bytes and is written against io.Writer so
// tests drive it directly.

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

// detectFile sniffs the trace container format of a file.
func detectFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	prefix := make([]byte, 4)
	n, err := io.ReadFull(f, prefix)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return "", err
	}
	return trace.DetectFormat(prefix[:n]), nil
}

// runConvert converts a trace between the text and v1 containers.
func runConvert(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	to := fs.String("to", "", "output format: text, v1 (required)")
	out := fs.String("o", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *to == "" {
		return errors.New("convert: -o and -to are required")
	}
	if *to != "text" && *to != "v1" {
		return fmt.Errorf("convert: unknown output format %q", *to)
	}
	if fs.NArg() != 1 {
		return errors.New("convert: need exactly one input trace")
	}
	in := fs.Arg(0)
	from, err := detectFile(in)
	if err != nil {
		return err
	}
	recs, err := loadRecords(in, from)
	if err != nil {
		return err
	}

	dst, err := os.Create(*out)
	if err != nil {
		return err
	}
	if *to == "text" {
		err = trace.WriteText(dst, recs)
	} else {
		_, err = trace.Capture(dst, trace.NewSliceStream(recs), 0)
	}
	if err != nil {
		dst.Close()
		os.Remove(*out)
		return err
	}
	if err := dst.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "converted %s (%s) -> %s (%s): %d records\n", in, from, *out, *to, len(recs))
	return nil
}

// loadRecords reads every record of a text or v1 trace.
func loadRecords(path, format string) ([]trace.Record, error) {
	if format == trace.FormatText {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadText(f)
	}
	r, f, err := openV1(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []trace.Record
	err = eachRecord(r, func(rec trace.Record) { recs = append(recs, rec) })
	return recs, err
}
