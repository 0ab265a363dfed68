package sim

// The Runner's single resolution path (see DESIGN.md "Result cache &
// incremental recomputation"). Every unit of work shared between grid
// cells — a workload's calibrated IPC, and each grid cell, the measured
// baseline being the (workload, baseline, 1000) cell — is served the
// same way: memo, then a coalesced in-flight execution of the same key,
// then the content-addressed store, then the cross-process compute
// lease, and only then a protected compute. Keys hash every fault plan
// a unit depends on, so faulted and fault-free runs share the path and
// can never serve each other's results.

import (
	"context"
	"encoding/json"
	"slices"
	"sync"

	"repro/internal/flight"
)

// units is the Runner's table for one kind of work: completed values,
// memoized for the Runner's life, and the singleflight group that
// coalesces concurrent computations of the same key.
type units[K comparable, V any] struct {
	mu     sync.Mutex
	memo   map[K]V // guarded by mu
	flight flight.Group[K, V]
}

func (u *units[K, V]) get(k K) (V, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	v, ok := u.memo[k]
	return v, ok
}

func (u *units[K, V]) put(k K, v V) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.memo == nil {
		u.memo = make(map[K]V)
	}
	u.memo[k] = v
}

// sorted returns every memoized value, ordered by cmp.
func (u *units[K, V]) sorted(cmp func(a, b V) int) []V {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]V, 0, len(u.memo))
	for _, v := range u.memo {
		out = append(out, v)
	}
	slices.SortFunc(out, cmp)
	return out
}

// work describes one unit to resolve.
type work[V any] struct {
	// hash is the unit's content address: a digest of everything that
	// determines the value, fault plans included.
	hash func() (string, error)
	// valid checks a decoded payload's identity; a mismatch is a miss.
	valid func(V) bool
	// compute produces the value when no tier holds it.
	compute func() (V, error)
	// cell marks grid cells, the units CellStats counts.
	cell bool
}

// resolve serves one unit through the resolution path. A successful
// value is memoized and, when a store is attached, written back to it;
// a failure — cancellation included — is stored nowhere.
func (u *units[K, V]) resolve(ctx context.Context, r *Runner, key K, w work[V]) (V, error) {
	r.tally(w.cell, func(s *CellStats) { s.Requests++ })
	if v, ok := u.get(key); ok {
		return v, nil
	}
	v, err := u.flight.DoCtx(ctx, key, func() (V, error) {
		// A flight that completed between the miss and DoCtx may have
		// memoized the value already.
		if v, ok := u.get(key); ok {
			return v, nil
		}
		v, err := fill(ctx, r, w)
		if err == nil {
			u.put(key, v)
		}
		return v, err
	})
	if err != nil {
		r.tally(w.cell, func(s *CellStats) { s.Errors++ })
	}
	return v, err
}

// fill resolves a memo miss inside its singleflight execution: the
// store, the compute lease, then compute. A unit whose key cannot be
// derived (an unknown workload) skips the store and fails in compute.
func fill[V any](ctx context.Context, r *Runner, w work[V]) (V, error) {
	var hash string
	if r.store != nil {
		hash, _ = w.hash()
	}
	if hash != "" {
		if v, ok := load(r, hash, w.valid); ok {
			r.tally(w.cell, func(s *CellStats) { s.CacheHits++ })
			return v, nil
		}
		r.tally(w.cell, func(s *CellStats) { s.CacheMisses++ })
		if r.leaser != nil {
			v, served, err := awaitLease(ctx, r, hash, w)
			if err != nil || served {
				return v, err
			}
			defer r.leaser.Release(hash)
		}
	}
	v, err := w.compute()
	if err != nil {
		return v, err
	}
	r.tally(w.cell, func(s *CellStats) { s.Simulated++ })
	if hash != "" {
		// encoding/json round-trips float64 exactly, so a later run
		// serving this entry renders the same bytes a fresh one would.
		if data, err := json.Marshal(v); err == nil {
			r.store.Put(hash, data)
		}
	}
	return v, nil
}

// awaitLease is the lease protocol around one missed unit: claim, and
// while another owner holds the lease, wait and re-poll the store. It
// returns (v, true, nil) when the unit landed in the store while
// waiting, (zero, false, nil) when the lease was acquired — the caller
// must compute and then Release — and an error only on cancellation.
func awaitLease[V any](ctx context.Context, r *Runner, hash string, w work[V]) (V, bool, error) {
	var zero V
	for {
		if r.leaser.Claim(hash) {
			return zero, false, nil
		}
		r.tally(w.cell, func(s *CellStats) { s.LeaseWaits++ })
		if err := r.leaser.Wait(ctx, hash); err != nil {
			return zero, false, err
		}
		if v, ok := load(r, hash, w.valid); ok {
			r.tally(w.cell, func(s *CellStats) { s.CacheHits++; s.LeaseHits++ })
			return v, true, nil
		}
	}
}

// load decodes a stored unit. Any defect — undecodable payload, identity
// mismatch — reads as a miss, never an error or a wrong result.
func load[V any](r *Runner, hash string, valid func(V) bool) (V, bool) {
	var zero V
	data, ok := r.store.Get(hash)
	if !ok {
		return zero, false
	}
	var v V
	if err := json.Unmarshal(data, &v); err != nil || !valid(v) {
		return zero, false
	}
	return v, true
}

// tally updates the cell-request counters; units that are not grid
// cells (calibration) leave them alone.
func (r *Runner) tally(cell bool, f func(*CellStats)) {
	if !cell {
		return
	}
	r.mu.Lock()
	f(&r.cellStats)
	r.mu.Unlock()
}
