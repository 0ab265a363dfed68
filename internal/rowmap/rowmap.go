// Package rowmap is a fixed-capacity map from DRAM row to int32, for the
// mitigation structures whose occupancy the design bounds: AQUA's forward
// pointer table holds at most one entry per RQA slot, and a Misra-Gries
// tracker holds at most its provisioned entries per bank. Sizing the map
// to that bound, instead of keying a dense array by every row of the
// rank, keeps per-cell state proportional to what the structure can hold.
//
// The map is open-addressed with linear probing and backward-shift
// deletion, so it needs no tombstones and never grows. The table has at
// least four slots per entry of capacity: at that load most probes end
// at their first slot. The home slot is the row's low bits
// XORed with a multiplicative hash of the bits above them, so rows that
// are neighbours in DRAM are neighbours in the table (one cache line
// serves a run of them, as it did for a dense array), while rows that
// share their low bits — the same index in different banks, or rows a
// power-of-two stride apart — scatter over the table instead of forming
// one long probe run.
package rowmap

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
)

// slot holds one entry. key is the row plus one, so the zero slot is
// empty and a freshly allocated or cleared table needs no fill. Rows are
// far below 2^32-1, so the +1 cannot wrap.
type slot struct {
	key uint32
	val int32
}

// Map is a fixed-capacity row -> int32 map. The zero Map is not usable;
// build one with New. Not safe for concurrent use.
type Map struct {
	slots    []slot
	mask     uint32
	shift    uint32 // log2(len(slots)): where home splits a row into low and high bits
	n        int
	capacity int
}

// New returns an empty map that holds up to capacity entries. Inserting a
// new row into a full map panics: every user of the map has a structural
// bound on its occupancy, so exceeding it is a bug, not a load condition.
func New(capacity int) Map {
	size := Slots(capacity)
	return Map{
		slots:    make([]slot, size),
		mask:     uint32(size - 1),
		shift:    uint32(bits.TrailingZeros(uint(size))),
		capacity: capacity,
	}
}

// Slots returns the table length New(capacity) allocates: the smallest
// power of two holding four slots per entry.
func Slots(capacity int) int {
	if capacity < 1 {
		panic("rowmap: capacity must be >= 1")
	}
	return 1 << bits.Len(uint(4*capacity-1))
}

// home returns the first slot probed for row r: its low bits XOR the top
// bits of a Fibonacci hash of the bits above them. The high part is zero
// for the rows of the first table length, which therefore sit at their
// own index. Shift counts are masked to 5 bits, which they never exceed,
// so the compiler emits them without an overflow clamp.
func (m *Map) home(r uint32) uint32 {
	return (r ^ (r>>(m.shift&31))*0x9E3779B1>>((32-m.shift)&31)) & m.mask
}

// Ref returns a pointer to r's value, or nil if r is absent. The pointer
// is valid until the next Put of a new row, Delete or Clear.
func (m *Map) Ref(r dram.Row) *int32 {
	key := uint32(r) + 1
	slots, mask := m.slots, m.mask
	for i := m.home(uint32(r)); ; i = (i + 1) & mask {
		s := &slots[i]
		if s.key == key {
			return &s.val
		}
		if s.key == 0 {
			return nil
		}
	}
}

// Get returns r's value and whether r is present.
func (m *Map) Get(r dram.Row) (int32, bool) {
	if p := m.Ref(r); p != nil {
		return *p, true
	}
	return 0, false
}

// Has reports whether r is present.
func (m *Map) Has(r dram.Row) bool { return m.Ref(r) != nil }

// Put sets r's value, inserting r if absent. It panics if r is new and
// the map already holds its capacity.
func (m *Map) Put(r dram.Row, v int32) {
	key := uint32(r) + 1
	i := m.home(uint32(r))
	for ; m.slots[i].key != 0; i = (i + 1) & m.mask {
		if m.slots[i].key == key {
			m.slots[i].val = v
			return
		}
	}
	if m.n == m.capacity {
		panic(fmt.Sprintf("rowmap: inserting row %d into a full map (capacity %d)", r, m.capacity))
	}
	m.slots[i] = slot{key: key, val: v}
	m.n++
}

// Delete removes r and reports whether it was present. Backward-shift
// deletion moves each later member of the probe run into the hole when
// its home slot allows, so every remaining row stays reachable from its
// home slot without crossing an empty one.
func (m *Map) Delete(r dram.Row) bool {
	key := uint32(r) + 1
	i := m.home(uint32(r))
	for ; m.slots[i].key != key; i = (i + 1) & m.mask {
		if m.slots[i].key == 0 {
			return false
		}
	}
	for j := (i + 1) & m.mask; m.slots[j].key != 0; j = (j + 1) & m.mask {
		// The entry at j may fill the hole at i exactly when i lies on
		// its probe path, i.e. no further from its home than j is.
		if h := m.home(m.slots[j].key - 1); (j-h)&m.mask >= (j-i)&m.mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot{}
	m.n--
	return true
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// Clear removes every entry, keeping the table.
func (m *Map) Clear() {
	if m.n != 0 {
		clear(m.slots)
		m.n = 0
	}
}

// Range calls f for each entry in table order until f returns false.
// The order is a function of the map's contents and history alone, so it
// is deterministic, but callers must not let it reach simulated results.
func (m *Map) Range(f func(r dram.Row, v int32) bool) {
	for _, s := range m.slots {
		if s.key != 0 && !f(dram.Row(s.key-1), s.val) {
			return
		}
	}
}
