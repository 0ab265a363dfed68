package main

import (
	"testing"
	"time"
)

// TestBackoffDeterministic pins the client's retry-schedule contract:
// identical (seed, scope, base, max) quadruples replay the identical
// wait sequence. Every retry decision is reproducible from the seed — no
// global RNG, no clock-derived jitter.
func TestBackoffDeterministic(t *testing.T) {
	mk := func() *Backoff { return NewBackoff(7, "job-a/cell-1", 10*time.Millisecond, time.Second) }
	a, b := mk(), mk()
	for i := 0; i < 12; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("attempt %d: same seed+scope diverged: %v vs %v", i+1, da, db)
		}
	}
	if a.Attempt() != 12 {
		t.Fatalf("Attempt() = %d, want 12", a.Attempt())
	}
}

// TestBackoffEnvelope checks every wait lands in the equal-jitter window
// [w/2, w) with w = min(base<<(n-1), max) — exponential growth, hard cap.
func TestBackoffEnvelope(t *testing.T) {
	base, max := 10*time.Millisecond, 160*time.Millisecond
	b := NewBackoff(1, "scope", base, max)
	for n := 1; n <= 10; n++ {
		w := base << (n - 1)
		if w > max || w <= 0 {
			w = max
		}
		d := b.Next()
		if d < w/2 || d >= w {
			t.Fatalf("attempt %d: wait %v outside [%v, %v)", n, d, w/2, w)
		}
	}
}

// TestBackoffScopesDecorrelated is the anti-thundering-herd property:
// different scopes (different clients shed at the same moment) draw from
// decorrelated jitter streams, so their retry schedules fan out instead
// of marching in phase.
func TestBackoffScopesDecorrelated(t *testing.T) {
	const attempts = 16
	a := NewBackoff(7, "job-a/cell-1", 10*time.Millisecond, time.Second)
	b := NewBackoff(7, "job-b/cell-1", 10*time.Millisecond, time.Second)
	same := 0
	for i := 0; i < attempts; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == attempts {
		t.Fatalf("all %d waits identical across scopes; jitter streams are correlated", attempts)
	}
}

// TestBackoffSeedsDiffer: changing the root seed changes the schedule.
func TestBackoffSeedsDiffer(t *testing.T) {
	a := NewBackoff(1, "scope", 10*time.Millisecond, time.Second)
	b := NewBackoff(2, "scope", 10*time.Millisecond, time.Second)
	same := 0
	for i := 0; i < 16; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 16 {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

// TestBackoffDefaultsAndClamps: non-positive base defaults to 10ms, a max
// below base clamps up to base, and overflow-prone shifts stick at max.
func TestBackoffDefaultsAndClamps(t *testing.T) {
	b := NewBackoff(1, "s", 0, 0)
	if d := b.Next(); d < 5*time.Millisecond || d >= 10*time.Millisecond {
		t.Fatalf("defaulted first wait %v outside [5ms, 10ms)", d)
	}

	// Giant base: once the envelope reaches max (attempt 3 here), every
	// further attempt stays inside [max/2, max) — the shift overflow
	// guard, not wraparound, decides.
	big := NewBackoff(1, "s", time.Duration(1)<<50, time.Duration(1)<<52)
	for i := 1; i <= 64; i++ {
		w := time.Duration(1) << (50 + min(i-1, 2))
		d := big.Next()
		if d < w/2 || d >= w {
			t.Fatalf("attempt %d: overflow-guarded wait %v escaped [%v, %v)", i, d, w/2, w)
		}
	}
}
