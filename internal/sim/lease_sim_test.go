package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cellcache"
)

// scriptLeaser is a CellLeaser with a scripted Claim sequence and an
// optional onWait hook that simulates "the other process finished while
// we waited".
type scriptLeaser struct {
	mu       sync.Mutex
	claims   []bool // answers for successive Claim calls; exhausted = true
	claimed  []string
	released []string
	waits    int
	onWait   func()
}

func (l *scriptLeaser) Claim(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.claimed = append(l.claimed, key)
	if len(l.claims) == 0 {
		return true
	}
	ok := l.claims[0]
	l.claims = l.claims[1:]
	return ok
}

func (l *scriptLeaser) Wait(ctx context.Context, key string) error {
	l.mu.Lock()
	l.waits++
	hook := l.onWait
	l.mu.Unlock()
	if hook != nil {
		hook()
	}
	return ctx.Err()
}

func (l *scriptLeaser) Release(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.released = append(l.released, key)
}

// TestLeaserAcquiredPathSimulatesAndReleases pins the happy path: a
// granted claim simulates the cell and releases the lease afterwards.
func TestLeaserAcquiredPathSimulatesAndReleases(t *testing.T) {
	store, _ := cellcache.New("")
	r := NewRunner(gridCfg(1))
	r.AttachCellCache(store)
	l := &scriptLeaser{}
	r.AttachLeaser(l)
	if _, err := r.Run("xz", SchemeAquaMemMapped, 1000); err != nil {
		t.Fatal(err)
	}
	key, err := r.CellKey("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	baseKey, err := r.CellKey("xz", SchemeBaseline, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// The scheme cell claims its content-addressed key, then — computing —
	// its baseline dependency claims its own; each is released once its
	// compute is done, innermost first.
	if !reflect.DeepEqual(l.claimed, []string{key, baseKey}) || !reflect.DeepEqual(l.released, []string{baseKey, key}) {
		t.Fatalf("claims=%v releases=%v, want cell then baseline claimed, baseline then cell released", l.claimed, l.released)
	}
	st := r.CellStats()
	if st.Simulated != 2 || st.LeaseWaits != 0 {
		t.Fatalf("stats %+v, want 2 simulated, 0 lease waits", st)
	}
}

// TestLeaserLostClaimServesOtherProcessResult pins the dedup path: a
// claim lost to another owner waits, and when the other process's result
// lands in the shared store, it is served without simulating here.
func TestLeaserLostClaimServesOtherProcessResult(t *testing.T) {
	// "Process A" computes the cell in its own store.
	storeA, _ := cellcache.New("")
	rA := NewRunner(gridCfg(1))
	rA.AttachCellCache(storeA)
	want, err := rA.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	key, err := rA.CellKey("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}

	// "Process B" misses its store, loses the claim, and — while it
	// waits — A's result lands in B's store (the shared-directory flow,
	// modelled by the onWait copy). The wait must resolve via the store
	// without B simulating anything.
	storeB, _ := cellcache.New("")
	rB := NewRunner(gridCfg(1))
	rB.AttachCellCache(storeB)
	l := &scriptLeaser{claims: []bool{false}}
	l.onWait = func() {
		if data, ok := storeA.Get(key); ok {
			storeB.Put(key, data)
		}
	}
	rB.AttachLeaser(l)
	got, err := rB.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lease-served run diverged:\n got %+v\nwant %+v", got, want)
	}
	st := rB.CellStats()
	if st.Simulated != 0 {
		t.Fatalf("stats %+v: B simulated despite the lease-holder's result arriving", st)
	}
	if st.LeaseWaits != 1 || st.LeaseHits != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v, want 1 lease wait resolving as 1 lease/cache hit", st)
	}
	if len(l.released) != 0 {
		t.Fatalf("B released leases it never acquired: %v", l.released)
	}
}

// TestLeaserWaitCancellation: a wait that outlives the job's context
// returns the context error instead of spinning.
func TestLeaserWaitCancellation(t *testing.T) {
	store, _ := cellcache.New("")
	r := NewRunner(gridCfg(1))
	r.AttachCellCache(store)
	ctx, cancel := context.WithCancel(context.Background())
	l := &scriptLeaser{claims: []bool{false, false, false, false}, onWait: cancel}
	r.AttachLeaser(l)
	if _, err := r.RunCtx(ctx, "xz", SchemeAquaMemMapped, 1000); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled from the lease wait", err)
	}
}

// TestOnCellStartFiresPerComputeAttempt: the hook fires once per compute
// attempt — baseline + scheme cell — and never for cells served from the
// memo.
func TestOnCellStartFiresPerComputeAttempt(t *testing.T) {
	cfg := gridCfg(1)
	var mu sync.Mutex
	var starts []string
	cfg.OnCellStart = func(w string, s Scheme, trh int64) {
		mu.Lock()
		starts = append(starts, w+"/"+s.String())
		mu.Unlock()
	}
	r := NewRunner(cfg)
	if _, err := r.Run("xz", SchemeAquaMemMapped, 1000); err != nil {
		t.Fatal(err)
	}
	// One compute attempt for the baseline cell the scheme cell depends
	// on, then one for the scheme cell.
	if !reflect.DeepEqual(starts, []string{"xz/baseline", "xz/aqua-memmapped"}) {
		t.Fatalf("OnCellStart fired %v, want exactly [xz/baseline xz/aqua-memmapped]", starts)
	}
	// A repeat of the same cell is served from the memo: no new fires.
	if _, err := r.Run("xz", SchemeAquaMemMapped, 1000); err != nil {
		t.Fatal(err)
	}
	if len(starts) != 2 {
		t.Fatalf("memo-served cell fired OnCellStart: %v", starts)
	}
	// A different cell fires again.
	if _, err := r.Run("xz", SchemeRRS, 1000); err != nil {
		t.Fatal(err)
	}
	if len(starts) != 3 || starts[2] != "xz/rrs" {
		t.Fatalf("second cell: OnCellStart fired %v", starts)
	}
}
