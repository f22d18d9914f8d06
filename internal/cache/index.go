package cache

import "math/bits"

// pageIndex maps a PageID to an int32 slot. It is an open-addressing
// hash table: a fixed, unseeded mix of File and Index picks a page's
// home bucket, collisions probe linearly, deletion shifts the rest of
// the probe run back (so there are no tombstones), and the table
// doubles once it would pass half full. Its entries hold no pointers,
// so the garbage collector never scans them. No caller may let a
// result depend on table order. The zero value is an empty index.
type pageIndex struct {
	table []indexEntry // power-of-two length, or nil before the first put
	n     int          // occupied buckets
	shift uint         // 64 - log2(len(table))
}

type indexEntry struct {
	id   PageID
	slot int32 // slot+1; 0 marks an empty bucket
}

// minIndexBuckets is the first table size, kept small: a cache with a
// handful of resident pages should cost a handful of buckets.
const minIndexBuckets = 16

// home is id's first bucket: Fibonacci hashing of File and Index
// folded together, taking the product's top bits.
func (x *pageIndex) home(id PageID) int {
	h := (id.File*0xd6e8feb86659fd93 ^ uint64(id.Index)) * 0x9e3779b97f4a7c15
	return int(h >> x.shift)
}

// get returns id's slot.
func (x *pageIndex) get(id PageID) (int32, bool) {
	if x.n == 0 {
		return -1, false
	}
	mask := len(x.table) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		e := &x.table[i]
		if e.slot == 0 {
			return -1, false
		}
		if e.id == id {
			return e.slot - 1, true
		}
	}
}

// put maps id to slot, replacing any slot it had.
func (x *pageIndex) put(id PageID, slot int32) {
	if 2*(x.n+1) > len(x.table) {
		x.grow()
	}
	mask := len(x.table) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		e := &x.table[i]
		if e.slot == 0 {
			*e = indexEntry{id: id, slot: slot + 1}
			x.n++
			return
		}
		if e.id == id {
			e.slot = slot + 1
			return
		}
	}
}

// del removes id and returns the slot it had.
func (x *pageIndex) del(id PageID) (int32, bool) {
	if x.n == 0 {
		return -1, false
	}
	mask := len(x.table) - 1
	hole := x.home(id)
	for {
		e := &x.table[hole]
		if e.slot == 0 {
			return -1, false
		}
		if e.id == id {
			break
		}
		hole = (hole + 1) & mask
	}
	slot := x.table[hole].slot - 1
	// Backward shift: an entry later in the run moves into the hole
	// when the hole lies on its probe path (home, ..., j), so every
	// remaining entry stays reachable from its home without a
	// tombstone.
	for j := (hole + 1) & mask; x.table[j].slot != 0; j = (j + 1) & mask {
		if (j-x.home(x.table[j].id))&mask >= (j-hole)&mask {
			x.table[hole] = x.table[j]
			hole = j
		}
	}
	x.table[hole] = indexEntry{}
	x.n--
	return slot, true
}

// appendIDs appends every indexed id to dst in table order, which the
// caller must not let reach a result.
func (x *pageIndex) appendIDs(dst []PageID) []PageID {
	for _, e := range x.table {
		if e.slot != 0 {
			dst = append(dst, e.id)
		}
	}
	return dst
}

// clear empties the index, keeping its table.
func (x *pageIndex) clear() {
	clear(x.table)
	x.n = 0
}

func (x *pageIndex) grow() {
	old := x.table
	size := max(2*len(old), minIndexBuckets)
	x.table = make([]indexEntry, size)
	x.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e.slot == 0 {
			continue
		}
		i := x.home(e.id)
		for x.table[i].slot != 0 {
			i = (i + 1) & mask
		}
		x.table[i] = e
	}
}

// slab keeps one record per indexed page in a pointer-free slice. The
// index maps a PageID to its record's slot; freed slots are reused, so
// a steady-state cache allocates nothing per page.
type slab[T any] struct {
	index pageIndex
	recs  []T
	free  []int32 // released slots, reused last-in first-out
}

// add indexes id to a zeroed record and returns its slot. id must not
// be indexed already.
func (s *slab[T]) add(id PageID) int32 {
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = int32(len(s.recs))
		var zero T
		s.recs = append(s.recs, zero)
	}
	s.index.put(id, i)
	return i
}

// release frees slot i, whose id the caller has already deleted from
// the index.
func (s *slab[T]) release(i int32) {
	var zero T
	s.recs[i] = zero
	s.free = append(s.free, i)
}

// reset empties the slab, keeping its memory.
func (s *slab[T]) reset() {
	s.index.clear()
	s.recs = s.recs[:0]
	s.free = s.free[:0]
}
