package xfssim

import (
	"testing"

	"repro/internal/fs"
)

func TestAGDistribution(t *testing.T) {
	f, err := New(262144, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Inodes round-robin across AGs; consecutive creations land in
	// different groups.
	var blocks []int64
	for i := 0; i < 4; i++ {
		ino, _, err := f.Create(f.Root(), string(rune('a'+i)), fs.Regular, 0)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, f.inodeBlock(ino))
	}
	ags := map[int64]bool{}
	for _, b := range blocks {
		ags[b/f.agSize] = true
	}
	if len(ags) < 2 {
		t.Errorf("4 consecutive inodes landed in %d AG(s)", len(ags))
	}
}

func TestLargeFileStaysInline(t *testing.T) {
	f, _ := New(262144, 4)
	ino, _, _ := f.Create(f.Root(), "big", fs.Regular, 0)
	// A single large allocation on a fresh disk: one extent, no
	// btree, mapping costs nothing.
	if _, err := f.Resize(ino, 200<<20, 0); err != nil {
		t.Fatal(err)
	}
	exts, steps, err := f.Map(ino, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 {
		t.Errorf("fresh 200 MB file has %d extents in range, want 1", len(exts))
	}
	if len(steps) != 0 {
		t.Errorf("inline extent map charged %d metadata steps", len(steps))
	}
}

func TestBtreeSpill(t *testing.T) {
	f, _ := New(262144, 4)
	// Fragment free space so one file accumulates many extents.
	var victims []string
	for i := 0; i < 200; i++ {
		name := "frag" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		ino, _, err := f.Create(f.Root(), name, fs.Regular, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Resize(ino, 256<<10, 0)
		if i%2 == 0 {
			victims = append(victims, name)
		}
	}
	for _, v := range victims {
		if _, err := f.Remove(f.Root(), v, 0); err != nil {
			t.Fatal(err)
		}
	}
	ino, _, _ := f.Create(f.Root(), "spill", fs.Regular, 0)
	if _, err := f.Resize(ino, 40<<20, 0); err != nil {
		t.Fatal(err)
	}
	fl, _ := f.File(ino)
	if fl.ext.Extents() > inlineExtents && len(fl.btree) == 0 {
		t.Errorf("%d extents but no btree blocks", fl.ext.Extents())
	}
	if fl.ext.Extents() > inlineExtents {
		_, steps, _ := f.Map(ino, 0, 1)
		if len(steps) == 0 {
			t.Error("spilled map charged no btree reads")
		}
	}
}

func TestLogPlacementReserved(t *testing.T) {
	f, err := New(262144, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Allocating everything must never hand out log blocks.
	ino, _, _ := f.Create(f.Root(), "fill", fs.Regular, 0)
	if _, err := f.Resize(ino, f.BlocksFree()*fs.BlockSize, 0); err != nil {
		t.Fatal(err)
	}
	logStart := f.agSize / 2
	fl, _ := f.File(ino)
	exts, _, _ := f.Map(ino, 0, fl.ext.Blocks())
	for _, e := range exts {
		if e.DiskBlock < logStart+LogBlocks && e.DiskBlock+e.Count > logStart {
			t.Fatalf("extent %+v overlaps the log [%d, %d)", e, logStart, logStart+LogBlocks)
		}
	}
}

func TestDelayedLoggingBatches(t *testing.T) {
	f, _ := New(262144, 4)
	// Fewer than logBatch metadata ops: no log writes yet.
	for i := 0; i < logBatch-1; i++ {
		if _, _, err := f.Create(f.Root(), "a"+string(rune('0'+i)), fs.Regular, 0); err != nil {
			t.Fatal(err)
		}
	}
	appends, _, _ := f.journal.Stats()
	if appends != 0 {
		t.Errorf("log written after %d ops (batch is %d)", logBatch-1, logBatch)
	}
	if _, _, err := f.Create(f.Root(), "trigger", fs.Regular, 0); err != nil {
		t.Fatal(err)
	}
	appends, commits, _ := f.journal.Stats()
	if appends == 0 || commits == 0 {
		t.Error("batch boundary did not flush the log")
	}
}
