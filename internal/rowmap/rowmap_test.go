package rowmap

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
)

// checkStructure verifies the probing invariant: every entry is reachable
// from its home slot without crossing an empty slot, and n counts the
// occupied slots.
func checkStructure(t *testing.T, m *Map) {
	t.Helper()
	occupied := 0
	for i, s := range m.slots {
		if s.key == 0 {
			continue
		}
		occupied++
		for j := m.home(s.key - 1); j != uint32(i); j = (j + 1) & m.mask {
			if m.slots[j].key == 0 {
				t.Fatalf("row %d at slot %d is cut off from its home %d by empty slot %d",
					s.key-1, i, m.home(s.key-1), j)
			}
		}
	}
	if occupied != m.n {
		t.Fatalf("%d occupied slots, Len %d", occupied, m.n)
	}
}

func TestMatchesGoMap(t *testing.T) {
	for _, c := range []struct {
		name     string
		capacity int
		row      func(r *rng.Rand) dram.Row
	}{
		// Few distinct rows: long runs of updates and re-inserts.
		{"narrow", 8, func(r *rng.Rand) dram.Row { return dram.Row(r.Intn(24)) }},
		// Rows spread over a whole rank, drawn from a pool small enough
		// that deletes and updates find them again.
		{"wide", 64, func(r *rng.Rand) dram.Row { return dram.Row(rng.Derive(7, uint64(r.Intn(192))) % (1 << 21)) }},
		// Rows a power-of-two stride apart, the shape of one row index
		// hammered in every bank.
		{"stride", 32, func(r *rng.Rand) dram.Row { return dram.Row(r.Intn(96) << 17) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(uint64(c.capacity))
			m := New(c.capacity)
			ref := make(map[dram.Row]int32)
			for op := 0; op < 20000; op++ {
				row := c.row(r)
				switch k := r.Intn(10); {
				case k < 5:
					if _, ok := ref[row]; !ok && len(ref) == c.capacity {
						continue // a full map refuses new rows (tested below)
					}
					v := int32(r.Intn(1000))
					m.Put(row, v)
					ref[row] = v
				case k < 9:
					_, want := ref[row]
					if got := m.Delete(row); got != want {
						t.Fatalf("op %d: Delete(%d) = %v, want %v", op, row, got, want)
					}
					delete(ref, row)
				case r.Intn(50) == 0:
					m.Clear()
					clear(ref)
				}
				v, ok := m.Get(row)
				if wantV, wantOK := ref[row]; ok != wantOK || v != wantV {
					t.Fatalf("op %d: Get(%d) = %d,%v, want %d,%v", op, row, v, ok, wantV, wantOK)
				}
				if m.Len() != len(ref) {
					t.Fatalf("op %d: Len %d, want %d", op, m.Len(), len(ref))
				}
				if op%97 == 0 {
					checkStructure(t, &m)
				}
			}
			seen := 0
			m.Range(func(row dram.Row, v int32) bool {
				if ref[row] != v {
					t.Fatalf("Range yields %d=%d, want %d", row, v, ref[row])
				}
				seen++
				return true
			})
			if seen != len(ref) {
				t.Fatalf("Range visited %d entries, want %d", seen, len(ref))
			}
		})
	}
}

// TestDeleteWrapsAround builds a probe run that starts in the last slot
// and wraps to the front of the table, then deletes from its head: the
// backward shift must carry the wrapped members across the end.
func TestDeleteWrapsAround(t *testing.T) {
	m := New(3) // 16 slots
	last := m.mask
	// Collect three rows whose home is the last slot.
	var rows []dram.Row
	for r := dram.Row(0); len(rows) < 3; r++ {
		if m.home(uint32(r)) == last {
			rows = append(rows, r)
		}
	}
	for i, r := range rows {
		m.Put(r, int32(i))
	}
	if m.slots[0].key != uint32(rows[1])+1 || m.slots[1].key != uint32(rows[2])+1 {
		t.Fatalf("setup: run did not wrap: %+v", m.slots)
	}
	if !m.Delete(rows[0]) {
		t.Fatal("Delete of the run's head reported absent")
	}
	checkStructure(t, &m)
	if m.slots[last].key != uint32(rows[1])+1 || m.slots[0].key != uint32(rows[2])+1 || m.slots[1].key != 0 {
		t.Fatalf("backward shift did not carry the run across the end: %+v", m.slots)
	}
	for i, r := range rows[1:] {
		if v, ok := m.Get(r); !ok || v != int32(i+1) {
			t.Fatalf("Get(%d) = %d,%v after the wrapped delete", r, v, ok)
		}
	}
}

func TestPutPastCapacityPanics(t *testing.T) {
	m := New(2)
	m.Put(1, 1)
	m.Put(2, 2)
	m.Put(2, 3) // an update never needs room
	defer func() {
		if recover() == nil {
			t.Fatal("inserting a third row into a capacity-2 map did not panic")
		}
	}()
	m.Put(3, 3)
}

// TestHomeLocalityAndSpread pins the two properties home trades off:
// rows in one aligned run of eight share a cache line of slots, and rows
// that agree in their low bits — one table length apart, or the same
// index in every bank of a rank — get distinct home slots, where plain
// low-bit indexing would pile each set onto one slot.
func TestHomeLocalityAndSpread(t *testing.T) {
	m := New(1024)
	for r := uint32(0); r < 1<<16; r += 8 {
		for k := uint32(1); k < 8; k++ {
			if m.home(r+k)&^7 != m.home(r)&^7 {
				t.Fatalf("rows %d and %d land in different 8-slot lines", r, r+k)
			}
		}
	}
	for _, c := range []struct {
		name   string
		stride int
		n      int
	}{
		{"table stride", len(m.slots), 1024},
		{"bank stride", 1 << 17, 16},
	} {
		seen := make(map[uint32]bool)
		for i := 0; i < c.n; i++ {
			h := m.home(uint32(i * c.stride))
			if seen[h] {
				t.Fatalf("%s: row %d shares home slot %d", c.name, i*c.stride, h)
			}
			seen[h] = true
		}
	}
}
