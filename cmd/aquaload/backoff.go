package main

// Deterministic seeded backoff for the load client's shed-retry loop:
// the schedule is exponential with jitter, but the jitter comes from
// internal/rng streams derived from (seed, scope), never from a global
// RNG or the clock. The same seed therefore reproduces the same schedule
// — the property the backoff tests pin — while distinct scopes (one per
// client) draw decorrelated streams, so a crowd of clients shed at once
// fans back out instead of retrying in phase.

import (
	"time"

	"repro/internal/rng"
)

// backoffKey salts the seed derivation so backoff streams never collide
// with workload or fault streams sharing the same root seed.
const backoffKey = 0xB0FF

// Backoff produces an exponential wait schedule with equal jitter:
// attempt n (1-based) waits in [w/2, w) where w = min(base<<(n-1), max).
// Not safe for concurrent use — each waiter owns its Backoff, like every
// other per-stream rng consumer.
type Backoff struct {
	rand    *rng.Rand
	base    time.Duration
	max     time.Duration
	attempt int
}

// NewBackoff builds the schedule for one scope (a client request id).
// Identical (seed, scope, base, max) quadruples yield identical
// schedules; different scopes decorrelate.
func NewBackoff(seed uint64, scope string, base, max time.Duration) *Backoff {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max < base {
		max = base
	}
	return &Backoff{
		rand: rng.New(rng.Derive(seed, backoffKey, rng.HashString(scope))),
		base: base,
		max:  max,
	}
}

// Next returns the wait before the upcoming re-attempt and advances the
// schedule.
func (b *Backoff) Next() time.Duration {
	b.attempt++
	w := b.window(b.attempt)
	half := w / 2
	return half + time.Duration(b.rand.Uint64n(uint64(w-half)))
}

// Attempt reports how many Next calls have been consumed.
func (b *Backoff) Attempt() int { return b.attempt }

// window is the jitter-free envelope for attempt n.
func (b *Backoff) window(n int) time.Duration {
	w := b.base
	for i := 1; i < n; i++ {
		w <<= 1
		if w >= b.max || w <= 0 { // <= 0: shift overflow
			return b.max
		}
	}
	if w > b.max {
		return b.max
	}
	return w
}
