package event

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

func TestLessTotalOrder(t *testing.T) {
	cases := []struct {
		name string
		a, b Event
	}{
		{"time dominates", Event{Time: 1, Class: ClassCoreIssue, Index: 9}, Event{Time: 2, Class: ClassRefresh}},
		{"class breaks time tie", Event{Time: 5, Class: ClassRefresh}, Event{Time: 5, Class: ClassEpoch}},
		{"epoch before drain", Event{Time: 5, Class: ClassEpoch}, Event{Time: 5, Class: ClassDrain}},
		{"drain before core issue", Event{Time: 5, Class: ClassDrain}, Event{Time: 5, Class: ClassCoreIssue}},
		{"index breaks class tie", Event{Time: 5, Class: ClassCoreIssue, Index: 0}, Event{Time: 5, Class: ClassCoreIssue, Index: 1}},
	}
	for _, tc := range cases {
		if !Less(tc.a, tc.b) {
			t.Errorf("%s: Less(%v, %v) = false, want true", tc.name, tc.a, tc.b)
		}
		if Less(tc.b, tc.a) {
			t.Errorf("%s: Less(%v, %v) = true, want false", tc.name, tc.b, tc.a)
		}
	}
	e := Event{Time: 5, Class: ClassEpoch, Index: 3}
	if Less(e, e) {
		t.Errorf("Less(%v, %v) = true; the order must be strict", e, e)
	}
}

// TestClassPriorityPinned pins the numeric class order documented in the
// package comment: changing it changes golden figure bytes, so the values
// are asserted literally rather than relative to each other.
func TestClassPriorityPinned(t *testing.T) {
	want := map[Class]uint8{
		ClassRefresh:   0,
		ClassEpoch:     1,
		ClassDrain:     2,
		ClassCoreIssue: 3,
	}
	for cl, v := range want {
		if uint8(cl) != v {
			t.Errorf("class %s = %d, want %d", cl, uint8(cl), v)
		}
	}
	if NumClasses != 4 {
		t.Errorf("NumClasses = %d, want 4", NumClasses)
	}
}

func TestEqualTimestampCollision(t *testing.T) {
	// All four classes armed at the same instant must pop in class order,
	// with equal-time indexed events ordered by index.
	var c Calendar
	c.SetLane(ClassDrain, 100)
	c.Push(Event{Time: 100, Class: ClassCoreIssue, Index: 2})
	c.Push(Event{Time: 100, Class: ClassCoreIssue, Index: 0})
	c.SetLane(ClassRefresh, 100)
	c.SetLane(ClassEpoch, 100)
	c.Push(Event{Time: 100, Class: ClassCoreIssue, Index: 1})

	want := []Event{
		{Time: 100, Class: ClassRefresh},
		{Time: 100, Class: ClassEpoch},
		{Time: 100, Class: ClassDrain},
		{Time: 100, Class: ClassCoreIssue, Index: 0},
		{Time: 100, Class: ClassCoreIssue, Index: 1},
		{Time: 100, Class: ClassCoreIssue, Index: 2},
	}
	for i, w := range want {
		got, ok := c.Pop()
		if !ok {
			t.Fatalf("pop %d: calendar empty, want %v", i, w)
		}
		if got != w {
			t.Fatalf("pop %d = %v, want %v", i, got, w)
		}
	}
	if _, ok := c.Pop(); ok {
		t.Fatal("calendar not empty after draining")
	}
}

func TestLaneRearmAndClear(t *testing.T) {
	var c Calendar
	c.SetLane(ClassRefresh, 50)
	c.SetLane(ClassEpoch, 40)
	if e, _ := c.Peek(); e != (Event{Time: 40, Class: ClassEpoch}) {
		t.Fatalf("peek = %v, want epoch@40", e)
	}
	// Re-arming forward moves the lane; the cached min must follow.
	c.SetLane(ClassEpoch, 60)
	if e, _ := c.Peek(); e != (Event{Time: 50, Class: ClassRefresh}) {
		t.Fatalf("peek after re-arm = %v, want refresh@50", e)
	}
	c.ClearLane(ClassRefresh)
	if e, _ := c.Peek(); e != (Event{Time: 60, Class: ClassEpoch}) {
		t.Fatalf("peek after clear = %v, want epoch@60", e)
	}
	if tm, ok := c.Lane(ClassEpoch); !ok || tm != 60 {
		t.Fatalf("Lane(epoch) = %d,%v, want 60,true", tm, ok)
	}
	if _, ok := c.Lane(ClassRefresh); ok {
		t.Fatal("Lane(refresh) still armed after ClearLane")
	}
	c.ClearLane(ClassRefresh) // idempotent
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestPopPrefersHeapOnExactTie(t *testing.T) {
	// A heap entry and a lane entry with the identical (time, class, index)
	// tuple are the same point in the total order; Peek/Pop must still be
	// deterministic. The implementation hands out the heap entry first.
	var c Calendar
	c.SetLane(ClassRefresh, 10)
	c.Push(Event{Time: 10, Class: ClassRefresh, Index: 0})
	first, _ := c.Pop()
	second, _ := c.Pop()
	if first != second || first != (Event{Time: 10, Class: ClassRefresh}) {
		t.Fatalf("tie pops = %v, %v; want two refresh@10", first, second)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", c.Len())
	}
}

func TestAdvanceToFoldsRearms(t *testing.T) {
	var c Calendar
	c.SetLane(ClassRefresh, 10)
	c.Push(Event{Time: 15, Class: ClassCoreIssue, Index: 0})
	var got []Event
	// AdvanceTo pops each event before handing it over; a core-issue event
	// with no successor needs no action, a lane re-arms itself forward.
	n := c.AdvanceTo(30, func(e Event) {
		got = append(got, e)
		if e.Class == ClassRefresh && e.Time+10 <= 30 {
			c.SetLane(ClassRefresh, e.Time+10)
		}
	})
	if n != 4 {
		t.Fatalf("AdvanceTo handled %d events, want 4", n)
	}
	want := []Event{
		{Time: 10, Class: ClassRefresh},
		{Time: 15, Class: ClassCoreIssue, Index: 0},
		{Time: 20, Class: ClassRefresh},
		{Time: 30, Class: ClassRefresh},
	}
	if len(got) != len(want) {
		t.Fatalf("handled %d events %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReplaceAndDropIndexedMin(t *testing.T) {
	var c Calendar
	for i := int32(0); i < 4; i++ {
		c.Push(Event{Time: PS(10 + i), Class: ClassCoreIssue, Index: i})
	}
	// Root is core 0 @10; pushing it to 25 must surface core 1 @11.
	c.ReplaceIndexedMin(25)
	if e, _ := c.MinIndexed(); e != (Event{Time: 11, Class: ClassCoreIssue, Index: 1}) {
		t.Fatalf("root after replace = %v, want core1@11", e)
	}
	c.DropIndexedMin()
	if e, _ := c.MinIndexed(); e != (Event{Time: 12, Class: ClassCoreIssue, Index: 2}) {
		t.Fatalf("root after drop = %v, want core2@12", e)
	}
	if c.HeapLen() != 3 {
		t.Fatalf("HeapLen = %d, want 3", c.HeapLen())
	}
}

func TestHorizonExcludesRoot(t *testing.T) {
	var c Calendar
	if _, ok := c.Horizon(); ok {
		t.Fatal("empty calendar has a horizon")
	}
	c.Push(Event{Time: 10, Class: ClassCoreIssue, Index: 0})
	if _, ok := c.Horizon(); ok {
		t.Fatal("single-entry heap has a horizon; the root is excluded")
	}
	c.Push(Event{Time: 30, Class: ClassCoreIssue, Index: 1})
	c.Push(Event{Time: 20, Class: ClassCoreIssue, Index: 2})
	if hz, _ := c.Horizon(); hz != (Event{Time: 20, Class: ClassCoreIssue, Index: 2}) {
		t.Fatalf("horizon = %v, want core2@20", hz)
	}
	// An earlier lane lowers the horizon without touching the heap.
	c.SetLane(ClassRefresh, 15)
	if hz, _ := c.Horizon(); hz != (Event{Time: 15, Class: ClassRefresh}) {
		t.Fatalf("horizon with lane = %v, want refresh@15", hz)
	}
	// But the root itself stays out of it even when a lane is later.
	c.SetLane(ClassRefresh, 40)
	if hz, _ := c.Horizon(); hz != (Event{Time: 20, Class: ClassCoreIssue, Index: 2}) {
		t.Fatalf("horizon with late lane = %v, want core2@20", hz)
	}
}

// TestCalendarMatchesReferenceModel drives random interleavings of pushes,
// lane arms and pops against a sorted-slice reference model, checking that
// every pop returns exactly the reference minimum.
func TestCalendarMatchesReferenceModel(t *testing.T) {
	lanes := []Class{ClassRefresh, ClassEpoch, ClassDrain}
	for seed := uint64(1); seed <= 8; seed++ {
		var c Calendar
		r := rng.New(seed * 0x9e3779b97f4a7c15)
		var ref []Event // pending events, maintained sorted
		insert := func(e Event) {
			i := sort.Search(len(ref), func(i int) bool { return !Less(ref[i], e) })
			ref = append(ref, Event{})
			copy(ref[i+1:], ref[i:])
			ref[i] = e
		}
		remove := func(i int) {
			ref = append(ref[:i], ref[i+1:]...)
		}
		for step := 0; step < 4000; step++ {
			switch op := r.Intn(10); {
			case op < 4: // push a core issue
				e := Event{
					Time:  PS(r.Intn(1 << 20)),
					Class: ClassCoreIssue,
					Index: int32(r.Intn(64)),
				}
				c.Push(e)
				insert(e)
			case op < 6: // arm or re-arm a lane
				cl := lanes[r.Intn(len(lanes))]
				tm := PS(r.Intn(1 << 20))
				c.SetLane(cl, tm)
				// Drop the lane's previous occurrence from the reference.
				for i, x := range ref {
					if x.Class == cl {
						remove(i)
						break
					}
				}
				insert(Event{Time: tm, Class: cl})
			case op < 7: // clear a lane
				cl := lanes[r.Intn(len(lanes))]
				c.ClearLane(cl)
				for i, x := range ref {
					if x.Class == cl {
						remove(i)
						break
					}
				}
			default: // pop
				got, ok := c.Pop()
				if len(ref) == 0 {
					if ok {
						t.Fatalf("seed %d step %d: pop = %v on empty reference", seed, step, got)
					}
					continue
				}
				if !ok {
					t.Fatalf("seed %d step %d: calendar empty, reference has %v", seed, step, ref[0])
				}
				if got != ref[0] {
					t.Fatalf("seed %d step %d: pop = %v, want %v", seed, step, got, ref[0])
				}
				remove(0)
			}
			if c.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, c.Len(), len(ref))
			}
		}
		// Drain: the remaining pops must come out in exact sorted order.
		for len(ref) > 0 {
			got, ok := c.Pop()
			if !ok || got != ref[0] {
				t.Fatalf("seed %d drain: pop = %v,%v, want %v", seed, got, ok, ref[0])
			}
			remove(0)
		}
		if _, ok := c.Pop(); ok {
			t.Fatalf("seed %d: calendar non-empty after drain", seed)
		}
	}
}

func TestResetKeepsCapacityEmptiesState(t *testing.T) {
	var c Calendar
	for i := int32(0); i < 32; i++ {
		c.Push(Event{Time: PS(i), Class: ClassCoreIssue, Index: i})
	}
	c.SetLane(ClassRefresh, 5)
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", c.Len())
	}
	if _, ok := c.Peek(); ok {
		t.Fatal("Peek returned an event after Reset")
	}
	// Steady-state reuse after Reset must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset()
		for i := int32(0); i < 32; i++ {
			c.Push(Event{Time: PS(i), Class: ClassCoreIssue, Index: i})
		}
		for {
			if _, ok := c.Pop(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop cycle after Reset allocates %.1f/run, want 0", allocs)
	}
}
