package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, v []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// testProfile encodes a profile with sample types (samples, cpu) and
// three samples: two on an inlined location whose innermost frame is
// dram (one with packed location ids, one unpacked), one on a runtime
// leaf called from sim.
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/dram.(*Rank).Access", "repro/internal/memctrl.(*Controller).Submit",
		"runtime.mallocgc", "repro/internal/sim.(*Runner).RunCtx.func1"}
	var p pb
	p.bytes(1, new(pb).varint(1, 1).varint(2, 2).b)
	p.bytes(1, new(pb).varint(1, 3).varint(2, 4).b)
	// location 1: dram Access inlined into memctrl Submit (leaf first).
	p.bytes(4, new(pb).varint(1, 1).
		bytes(4, new(pb).varint(1, 1).b).
		bytes(4, new(pb).varint(1, 2).b).b)
	p.bytes(4, new(pb).varint(1, 2).bytes(4, new(pb).varint(1, 3).b).b)
	p.bytes(4, new(pb).varint(1, 3).bytes(4, new(pb).varint(1, 4).b).b)
	for id, name := range []uint64{5, 6, 7, 8} {
		p.bytes(5, new(pb).varint(1, uint64(id+1)).varint(2, name).b)
	}
	p.bytes(2, new(pb).bytes(1, packed(1, 3)).bytes(2, packed(3, 30_000_000)).b)
	p.bytes(2, new(pb).varint(1, 1).varint(1, 3).varint(2, 1).varint(2, 10_000_000).b)
	p.bytes(2, new(pb).bytes(1, packed(2, 3)).bytes(2, packed(5, 50_000_000)).b)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileFoldsSelfTimeByPackage(t *testing.T) {
	self, err := selfByFunction(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	got := foldLayers(self)
	want := map[string]float64{"dram": 0.04, "runtime": 0.05}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Errorf("%s.self_s = %v, want %v", l, got[l], w)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/dram.(*Rank).Access":              "dram",
		"repro/internal/sim.(*Runner).RunCtx.func1":       "sim",
		"repro/internal/flight.ForEachCtx[...].func1":     "flight",
		"repro/internal/lint/analyzers.run":               "lint",
		"repro.(*Lab).Run":                                "repro",
		"runtime.mallocgc":                                "runtime",
		"runtime/internal/atomic.Load":                    "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":    "runtime",
		"encoding/json.(*encodeState).marshal":            "other",
		"main.runLab":                                     "other",
		"repro/perfbench.helper":                          "other",
		"syscall.Syscall6":                                "other",
		"gopkg.in/x/y.z":                                  "other",
		"repro/internal/workload.(*Generator).Stream.fn1": "workload",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuantileCountsFailuresAsInfinite(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	// One failure out of ten sits beyond p90: p90 is still finite.
	withFail := append([]float64{inf}, xs[1:]...)
	if got := quantile(withFail, 0.9); got != 9 {
		t.Errorf("p90 with one failure = %v, want 9", got)
	}
	// Two failures out of ten reach p90: it must read as missed.
	twoFail := append([]float64{inf, inf}, xs[2:]...)
	if got := quantile(twoFail, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with two failures = %v, want +Inf", got)
	}
	if got := finite(quantile(twoFail, 0.9)); got != infLatency {
		t.Errorf("finite(+Inf) = %v, want %v", got, infLatency)
	}
	if got := quantile(twoFail, 0.5); got != 6 {
		t.Errorf("p50 with two failures = %v, want 6", got)
	}
	// Nearest rank rounds up: the p50 of seven samples is the fourth.
	if got := quantile([]float64{7, 1, 6, 2, 5, 3, 4}, 0.5); got != 4 {
		t.Errorf("p50 of 1..7 = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}

// fakeClock advances only when slept on or when a test charges work.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesStallsToLaterSends(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	const interval = 100 * time.Millisecond
	start := c.now
	// Send 2's submit stalls the generator for 250 ms: sends 3 and 4
	// fall behind and must keep their scheduled due times.
	arr := openLoop(c, 6, interval, func(i int) {
		if i == 2 {
			c.now = c.now.Add(250 * time.Millisecond)
		}
	})
	wantLag := []time.Duration{0, 0, 0, 150 * time.Millisecond, 50 * time.Millisecond, 0}
	for i, a := range arr {
		if want := start.Add(time.Duration(i) * interval); !a.due.Equal(want) {
			t.Errorf("send %d due %v, want %v", i, a.due.Sub(start), want.Sub(start))
		}
		if a.lag() != wantLag[i] {
			t.Errorf("send %d lag %v, want %v", i, a.lag(), wantLag[i])
		}
	}
}

func TestJobPlanIsSeededAndBalanced(t *testing.T) {
	a, b := jobPlan(7, 101), jobPlan(7, 101)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan differs at %d for the same seed", i)
		}
	}
	if a[0] != goldenSeed {
		t.Fatalf("job 0 seed %#x, want the golden seed", a[0])
	}
	seen := map[uint64]bool{}
	fresh := 0
	for i, s := range a {
		if !seen[s] {
			seen[s] = true
			if i > 0 {
				fresh++
			}
		}
	}
	if fresh != 40 {
		t.Errorf("%d fresh jobs, want 40", fresh)
	}
	c, same := jobPlan(8, 101), true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Errorf("plans for different seeds coincide")
	}
}
