package cache

import (
	"testing"

	"repro/internal/sim"
)

// checkIndex compares x with the reference map and checks the linear
// probing invariants: no empty bucket lies between an entry's home and
// its bucket, the table stays at most half full, and n counts the
// occupied buckets.
func checkIndex(t *testing.T, x *pageIndex, ref map[PageID]int32) {
	t.Helper()
	if x.n != len(ref) {
		t.Fatalf("index holds %d ids, reference %d", x.n, len(ref))
	}
	for id, want := range ref {
		if got, ok := x.get(id); !ok || got != want {
			t.Fatalf("get(%v) = %d, %v; want %d", id, got, ok, want)
		}
	}
	if 2*x.n > len(x.table) && x.n > 0 {
		t.Fatalf("%d ids in %d buckets: more than half full", x.n, len(x.table))
	}
	mask := len(x.table) - 1
	occupied := 0
	for pos, e := range x.table {
		if e.slot == 0 {
			continue
		}
		occupied++
		for i := x.home(e.id); i != pos; i = (i + 1) & mask {
			if x.table[i].slot == 0 {
				t.Fatalf("%v in bucket %d is cut off from its home %d by empty bucket %d",
					e.id, pos, x.home(e.id), i)
			}
		}
	}
	if occupied != x.n {
		t.Fatalf("%d occupied buckets, n = %d", occupied, x.n)
	}
}

// applyIndexOp runs one put, get or del on x and on the reference.
func applyIndexOp(t *testing.T, x *pageIndex, ref map[PageID]int32, op int, id PageID, slot int32) {
	t.Helper()
	switch op {
	case 0:
		x.put(id, slot)
		ref[id] = slot
	case 1:
		got, ok := x.get(id)
		want, wantOK := ref[id]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("get(%v) = %d, %v; want %d, %v", id, got, ok, want, wantOK)
		}
	default:
		got, ok := x.del(id)
		want, wantOK := ref[id]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("del(%v) = %d, %v; want %d, %v", id, got, ok, want, wantOK)
		}
		delete(ref, id)
	}
}

func TestPageIndexMatchesMap(t *testing.T) {
	rng := sim.NewRNG(3)
	var x pageIndex
	ref := map[PageID]int32{}
	// Three phases: mostly puts (the table grows mid-sequence), mostly
	// deletes (long backward shifts), then an even mix.
	for _, putShare := range []int{70, 20, 50} {
		for step := 0; step < 20000; step++ {
			id := PageID{File: uint64(rng.Intn(4)), Index: int64(rng.Intn(3000))}
			op := 1
			switch k := rng.Intn(100); {
			case k < putShare:
				op = 0
			case k < putShare+(100-putShare)/2:
				op = 2
			}
			applyIndexOp(t, &x, ref, op, id, int32(step))
			if step%997 == 0 {
				checkIndex(t, &x, ref)
			}
		}
		checkIndex(t, &x, ref)
	}
}

func TestPageIndexWrapsProbeRun(t *testing.T) {
	var x pageIndex
	x.grow()
	size := len(x.table)
	// Seven ids homed in the last two buckets make one probe run that
	// crosses the end of the table, short of the size that would grow
	// it.
	var ids []PageID
	for i := int64(0); len(ids) < 7; i++ {
		if id := (PageID{File: 9, Index: i}); x.home(id) >= size-2 {
			ids = append(ids, id)
		}
	}
	ref := map[PageID]int32{}
	for i, id := range ids {
		applyIndexOp(t, &x, ref, 0, id, int32(i))
	}
	if len(x.table) != size {
		t.Fatalf("table grew to %d buckets", len(x.table))
	}
	if x.table[0].slot == 0 {
		t.Fatal("probe run does not wrap to bucket 0")
	}
	checkIndex(t, &x, ref)
	// Deleting from the front of the run shifts the wrapped entries
	// back across the end of the table.
	for _, i := range []int{1, 0, 4, 2, 6, 3, 5} {
		applyIndexOp(t, &x, ref, 2, ids[i], 0)
		checkIndex(t, &x, ref)
	}
}

// FuzzPageIndex runs put/get/del sequences, three bytes an operation,
// against a map. Keys come from a small space, so the fuzzer reaches
// collisions, long probe runs, growth and deletes within a run.
func FuzzPageIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 2, 1, 2, 1, 1, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7,
		0, 0, 8, 2, 0, 0, 2, 0, 4, 1, 0, 8, 2, 0, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var x pageIndex
		ref := map[PageID]int32{}
		for k := 0; k+3 <= len(ops); k += 3 {
			id := PageID{File: uint64(ops[k+1] % 4), Index: int64(ops[k+2])}
			applyIndexOp(t, &x, ref, int(ops[k]%3), id, int32(k))
		}
		checkIndex(t, &x, ref)
	})
}
