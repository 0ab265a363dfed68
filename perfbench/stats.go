package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs. A
// failed operation enters xs as +Inf, so it counts as missing every
// latency limit: once more than (1-q) of the samples failed, the
// quantile itself is infinite. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median is the midpoint median (mean of the two middle values for an
// even count), used for per-run summaries of a few repeated passes.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxOf returns the largest sample (0 for none).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// inf is the latency of an operation that never completed.
var inf = math.Inf(1)

// infLatency is how an infinite latency is printed: JSON has no
// infinity, and a value this large still reads as "missed every limit".
const infLatency = 1e9

// finite maps +Inf to infLatency for JSON output.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return infLatency
	}
	return x
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
