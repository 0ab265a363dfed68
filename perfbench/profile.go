package main

// CPU-profile folding: the traced run records a runtime/pprof profile and
// charges every sample's self time to the package of its innermost
// (leaf, after inlining) function. Only the handful of profile.proto
// fields that folding needs are decoded, so the benchmark needs nothing
// beyond the standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileSample is one decoded sample: its location stack (leaf first)
// and values.
type profileSample struct {
	locs   []uint64
	values []int64
}

// selfByFunction decodes a (gzipped or raw) pprof profile and returns the
// self time in seconds per leaf function name, using the sample value
// whose type is "cpu" (the last value if none is named so).
func selfByFunction(data []byte) (map[string]float64, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs        []string
		sampleTypes []int64 // string index of each value's type
		samples     []profileSample
		locFunc     = map[uint64]uint64{} // location id -> leaf function id
		funcName    = map[uint64]int64{}  // function id -> name string index
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 1 && wire == 2: // sample_type
			var typ int64
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 && w == 0 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, typ)
		case num == 2 && wire == 2: // sample
			var s profileSample
			if err := eachField(b, func(n, w int, v uint64, p []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, p, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, p, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case num == 4 && wire == 2: // location
			var id, fn uint64
			first := true
			if err := eachField(b, func(n, w int, v uint64, p []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2 && first: // line[0] is the innermost frame
					first = false
					return eachField(p, func(n, w int, v uint64, _ []byte) error {
						if n == 1 && w == 0 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case num == 5 && wire == 2: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make(map[string]float64)
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		name := str(funcName[locFunc[s.locs[0]]])
		out[name] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire 0) or payload (wire 2).
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding: one
// value per field (wire 0) or packed (wire 2).
func appendVarints(wire int, v uint64, p []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		p = p[n:]
	}
	return nil
}

// layerOf folds a fully qualified function name into the layer it is
// charged to: the package name under repro/internal/, "repro" for the
// public facade, "runtime" for the Go runtime (GC, allocation,
// scheduling) and "other" for everything else (standard library, the
// benchmark itself).
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		rest := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "repro":
		return "repro"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// foldLayers sums per-function self time into layers.
func foldLayers(self map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for fn, s := range self {
		out[layerOf(fn)] += s
	}
	return out
}
