package tracker

import (
	"errors"
	"testing"

	"repro/internal/dram"
)

// FuzzMisraGries runs the tracker beside denseMG, a reference that keeps
// its counts in one array indexed by every row of the rank, over a
// byte-coded sequence of activations, epoch resets and counter
// corruptions. The two must agree on every RecordACT result, every
// row's estimated count, every bank's spill counter, and on structural
// consistency after each step.
//
// The first two bytes pick the shape: rows per bank (a power of two or
// not, so both bank lookups run), the threshold, and the entries per
// bank. Each later byte is one operation: 0xFF resets the epoch, 0xFE
// corrupts an entry with the next three bytes as bank, index and count,
// and any other byte activates a row it encodes.
func FuzzMisraGries(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 0x01, 0x02, 0x03})
	f.Add([]byte{0x85, 0x23, 0x10, 0x20, 0x30, 0x10, 0xFE, 0x00, 0x00, 0x07, 0x10, 0xFF, 0x10})
	f.Add([]byte{0x41, 0x70, 0x05, 0x45, 0x85, 0xC5, 0x05, 0x45, 0x85, 0xC5, 0x06, 0x05, 0xFE, 0x01, 0x02, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rowsPerBank := 64
		if data[0]&0x80 != 0 {
			rowsPerBank = 48
		}
		geom := dram.Geometry{Banks: 4, RowsPerBank: rowsPerBank, RowBytes: 1024, LineBytes: 64}
		threshold := int64(data[0]&0x0F) + 1
		entries := int(data[1]&0x07) + 1
		ops := data[2:]
		if len(ops) > 512 {
			ops = ops[:512]
		}

		mg := NewMisraGries(geom, threshold, entries)
		ref := newDenseMG(geom, threshold, entries)
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			switch {
			case op == 0xFF:
				mg.Reset()
				ref.Reset()
			case op == 0xFE:
				if i+3 >= len(ops) {
					return
				}
				bank, idx, count := int(ops[i+1]), int(ops[i+2]), int64(ops[i+3])-8
				i += 3
				row, ok := mg.CorruptEntry(bank, idx, count)
				refRow, refOK := ref.CorruptEntry(bank, idx, count)
				if row != refRow || ok != refOK {
					t.Fatalf("op %d: CorruptEntry = %d,%v, reference %d,%v", i, row, ok, refRow, refOK)
				}
			default:
				row := dram.Row(int(op) % geom.Rows())
				if got, want := mg.RecordACT(row), ref.RecordACT(row); got != want {
					t.Fatalf("op %d: RecordACT(%d) = %v, reference %v", i, row, got, want)
				}
			}
			for r := 0; r < geom.Rows(); r++ {
				if got, want := mg.EstimatedCount(dram.Row(r)), ref.EstimatedCount(dram.Row(r)); got != want {
					t.Fatalf("op %d: EstimatedCount(%d) = %d, reference %d", i, r, got, want)
				}
			}
			for b := 0; b < geom.Banks; b++ {
				if got, want := mg.Spill(b), ref.Spill(b); got != want {
					t.Fatalf("op %d: Spill(%d) = %d, reference %d", i, b, got, want)
				}
			}
			err, refErr := mg.CheckConsistency(), ref.CheckConsistency()
			if err != nil || refErr != nil {
				t.Fatalf("op %d: CheckConsistency = %v, reference %v", i, err, refErr)
			}
		}
	})
}

// denseMG is the Misra-Gries tracker as it stood when its counts lived in
// a dense array with one int32 per row of the rank: the reference
// FuzzMisraGries holds the bounded tracker to.
type denseMG struct {
	geom      dram.Geometry
	threshold int64
	capacity  int
	banks     []denseBank
	cnt       []int32
}

type denseEntry struct {
	row   dram.Row
	count int64
}

type denseBank struct {
	heap  []denseEntry
	spill int64
}

func newDenseMG(geom dram.Geometry, threshold int64, entriesPerBank int) *denseMG {
	return &denseMG{
		geom:      geom,
		threshold: threshold,
		capacity:  entriesPerBank,
		banks:     make([]denseBank, geom.Banks),
		cnt:       make([]int32, geom.Rows()),
	}
}

func (b *denseBank) less(i, j int) bool {
	if b.heap[i].count != b.heap[j].count {
		return b.heap[i].count < b.heap[j].count
	}
	return b.heap[i].row < b.heap[j].row
}

func (b *denseBank) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !b.less(i, parent) {
			return
		}
		b.heap[i], b.heap[parent] = b.heap[parent], b.heap[i]
		i = parent
	}
}

func (b *denseBank) siftDown(i int) int {
	n := len(b.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && b.less(left, smallest) {
			smallest = left
		}
		if right < n && b.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return i
		}
		b.heap[i], b.heap[smallest] = b.heap[smallest], b.heap[i]
		i = smallest
	}
}

func (t *denseMG) ensureMin(b *denseBank) {
	for {
		c := int64(t.cnt[b.heap[0].row])
		if c == b.heap[0].count {
			return
		}
		b.heap[0].count = c
		b.siftDown(0)
	}
}

func (t *denseMG) RecordACT(row dram.Row) bool {
	if c := t.cnt[row]; c != 0 {
		c++
		t.cnt[row] = c
		return int64(c)%t.threshold == 0
	}
	b := &t.banks[t.geom.BankOf(row)]
	if len(b.heap) < t.capacity {
		c := b.spill + 1
		t.cnt[row] = int32(c)
		b.heap = append(b.heap, denseEntry{row: row, count: c})
		b.siftUp(len(b.heap) - 1)
		return c%t.threshold == 0
	}
	b.spill++
	if b.spill >= b.heap[0].count {
		t.ensureMin(b)
		if b.spill >= b.heap[0].count {
			evicted := b.heap[0].count
			t.cnt[b.heap[0].row] = 0
			c := b.spill
			t.cnt[row] = int32(c)
			b.heap[0] = denseEntry{row: row, count: c}
			b.siftDown(0)
			b.spill = evicted
			return c%t.threshold == 0
		}
	}
	return false
}

func (t *denseMG) Reset() {
	for i := range t.banks {
		b := &t.banks[i]
		for _, e := range b.heap {
			t.cnt[e.row] = 0
		}
		b.heap = b.heap[:0]
		b.spill = 0
	}
}

func (t *denseMG) EstimatedCount(row dram.Row) int64 { return int64(t.cnt[row]) }

func (t *denseMG) Spill(bank int) int64 { return t.banks[bank].spill }

func (t *denseMG) CorruptEntry(bank, idx int, newCount int64) (dram.Row, bool) {
	b := &t.banks[bank%len(t.banks)]
	if len(b.heap) == 0 {
		return 0, false
	}
	if newCount < 1 {
		newCount = 1
	}
	i := idx % len(b.heap)
	row := b.heap[i].row
	t.cnt[row] = int32(newCount)
	b.heap[i].count = newCount
	if b.siftDown(i) == i {
		b.siftUp(i)
	}
	return row, true
}

func (t *denseMG) CheckConsistency() error {
	for bi := range t.banks {
		b := &t.banks[bi]
		for i := range b.heap {
			c := int64(t.cnt[b.heap[i].row])
			if c < 1 || b.heap[i].count > c || (i > 0 && b.less(i, (i-1)/2)) {
				return errDense
			}
		}
	}
	return nil
}

var errDense = errors.New("dense reference tracker inconsistent")
