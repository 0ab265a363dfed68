// Package event is the simulator's unified event calendar: one
// deterministic priority structure over everything that can happen next —
// background work in the memory controller (refresh, epoch, drain) and
// per-core next-issue times in the run loop.
//
// Events are totally ordered by the tuple (Time, Class, Index). The class
// order encodes the hardware tie-break the layers already implement
// locally: at an equal timestamp, refresh outranks epoch bookkeeping,
// which outranks background draining, which outranks core issues;
// equal-time issues go to the lowest core index. Any change to this order
// changes golden figure bytes.
//
// The calendar is a time-wheel/binary-heap hybrid shaped by how the two
// kinds of producers behave:
//
//   - Singleton classes (refresh, epoch, drain) have at most one pending
//     occurrence each and re-arm themselves strictly forward in time. They
//     live in fixed per-class lanes — the degenerate time wheel — so
//     re-arming is an O(1) store, not a heap fix-up.
//   - The indexed class (core issues) has one pending entry per core and
//     lives in a binary min-heap. The run loop works on the heap root
//     directly: ReplaceIndexedMin is a single sift-down, and
//     Horizon exposes the earliest event that is *not* the root, which is
//     the bound the same-core issue-batching fast path needs.
//
// The zero value is an empty calendar. Push grows the heap's backing
// slice once; Reset keeps it, so steady-state push/pop never allocates.
// A Calendar is not safe for concurrent use — each simulated system owns
// its own, like every other layer of the simulator.
package event

// PS is simulated time in picoseconds. It aliases int64 exactly like
// dram.PS, so the two interchange freely without this package importing
// the DRAM model.
type PS = int64

// Class identifies an event source. The declaration order IS the
// equal-time priority order; see the package comment.
type Class uint8

const (
	// ClassRefresh is the controller's periodic auto-refresh command.
	ClassRefresh Class = iota
	// ClassEpoch is the tracker epoch boundary.
	ClassEpoch
	// ClassDrain is the idle background-drain opportunity.
	ClassDrain
	// ClassCoreIssue is a core's next request becoming ready, indexed by
	// core.
	ClassCoreIssue
	// NumClasses bounds the lane array.
	NumClasses
)

// String names the class for diagnostics.
func (c Class) String() string {
	switch c {
	case ClassRefresh:
		return "refresh"
	case ClassEpoch:
		return "epoch"
	case ClassDrain:
		return "drain"
	case ClassCoreIssue:
		return "core-issue"
	default:
		return "unknown"
	}
}

// Event is one scheduled occurrence. Index disambiguates entities within
// an indexed class (core number, bank number); singleton classes use 0.
type Event struct {
	Time  PS
	Class Class
	Index int32
}

// Less is the calendar's total order: (Time, Class, Index), ascending.
func Less(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.Index < b.Index
}

// Calendar is the hybrid structure. See the package comment for the
// lane/heap split.
type Calendar struct {
	heap []Event

	lane  [NumClasses]PS
	armed [NumClasses]bool
	// laneMin caches the earliest armed lane so the hot-loop reads
	// (Peek, Horizon) are O(1); it is recomputed on the rare lane writes.
	laneMin    Event
	laneMinSet bool
}

// Reset empties the calendar, keeping the heap's backing slice.
func (c *Calendar) Reset() {
	c.heap = c.heap[:0]
	for i := range c.armed {
		c.armed[i] = false
	}
	c.laneMinSet = false
}

// Len reports the number of pending events (armed lanes plus heap
// entries).
func (c *Calendar) Len() int {
	n := len(c.heap)
	for _, a := range c.armed {
		if a {
			n++
		}
	}
	return n
}

// HeapLen reports the number of pending indexed events.
func (c *Calendar) HeapLen() int { return len(c.heap) }

// SetLane arms (or re-arms) a singleton class at time t.
func (c *Calendar) SetLane(cl Class, t PS) {
	c.lane[cl] = t
	c.armed[cl] = true
	c.fixLaneMin()
}

// ClearLane disarms a singleton class.
func (c *Calendar) ClearLane(cl Class) {
	if !c.armed[cl] {
		return
	}
	c.armed[cl] = false
	c.fixLaneMin()
}

// Lane returns a singleton class's pending time, if armed.
func (c *Calendar) Lane(cl Class) (PS, bool) {
	return c.lane[cl], c.armed[cl]
}

func (c *Calendar) fixLaneMin() {
	c.laneMinSet = false
	for cl := Class(0); cl < NumClasses; cl++ {
		if !c.armed[cl] {
			continue
		}
		e := Event{Time: c.lane[cl], Class: cl}
		if !c.laneMinSet || Less(e, c.laneMin) {
			c.laneMin, c.laneMinSet = e, true
		}
	}
}

// Push schedules an indexed event.
func (c *Calendar) Push(e Event) {
	c.heap = append(c.heap, e)
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !Less(c.heap[i], c.heap[parent]) {
			break
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
}

// Peek returns the globally earliest pending event without removing it.
func (c *Calendar) Peek() (Event, bool) {
	if len(c.heap) == 0 {
		return c.laneMin, c.laneMinSet
	}
	if c.laneMinSet && Less(c.laneMin, c.heap[0]) {
		return c.laneMin, true
	}
	return c.heap[0], true
}

// Pop removes and returns the globally earliest pending event. Popping a
// lane event disarms the lane; the producer re-arms it for the next
// occurrence.
func (c *Calendar) Pop() (Event, bool) {
	e, ok := c.Peek()
	if !ok {
		return Event{}, false
	}
	if c.laneMinSet && e == c.laneMin && (len(c.heap) == 0 || Less(e, c.heap[0])) {
		c.armed[e.Class] = false
		c.fixLaneMin()
		return e, true
	}
	c.DropIndexedMin()
	return e, true
}

// AdvanceTo pops every event due at or before t, in calendar order,
// calling handle on each, and returns how many were handled. Handlers may
// re-arm lanes or push successor events; those are folded into the same
// sweep when they fall inside t.
func (c *Calendar) AdvanceTo(t PS, handle func(Event)) int {
	n := 0
	for {
		e, ok := c.Peek()
		if !ok || e.Time > t {
			return n
		}
		c.Pop()
		handle(e)
		n++
	}
}

// MinIndexed returns the earliest indexed event (the heap root) without
// removing it.
func (c *Calendar) MinIndexed() (Event, bool) {
	if len(c.heap) == 0 {
		return Event{}, false
	}
	return c.heap[0], true
}

// ReplaceIndexedMin reschedules the heap root to time t (class and index
// unchanged) and restores heap order. The root is the minimum, so any
// replacement needs only a sift-down.
func (c *Calendar) ReplaceIndexedMin(t PS) {
	c.heap[0].Time = t
	c.siftDown(0)
}

// DropIndexedMin removes the heap root (a finished entity).
func (c *Calendar) DropIndexedMin() {
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap = c.heap[:last]
	if last > 0 {
		c.siftDown(0)
	}
}

// Horizon returns the earliest pending event other than the heap root:
// the minimum over the root's children (the heap's second-smallest entry)
// and the armed lanes. It is the foreign-event bound for the run loop's
// same-core batching fast path — the root's owner may keep issuing while
// its successor events stay strictly below the horizon, because nothing
// else can become due first.
func (c *Calendar) Horizon() (Event, bool) {
	var best Event
	ok := false
	if n := len(c.heap); n > 1 {
		best, ok = c.heap[1], true
		if n > 2 && Less(c.heap[2], best) {
			best = c.heap[2]
		}
	}
	if c.laneMinSet && (!ok || Less(c.laneMin, best)) {
		best, ok = c.laneMin, true
	}
	return best, ok
}

func (c *Calendar) siftDown(i int) {
	n := len(c.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && Less(c.heap[right], c.heap[left]) {
			smallest = right
		}
		if !Less(c.heap[smallest], c.heap[i]) {
			return
		}
		c.heap[i], c.heap[smallest] = c.heap[smallest], c.heap[i]
		i = smallest
	}
}
