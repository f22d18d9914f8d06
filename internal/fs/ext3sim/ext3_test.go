package ext3sim

import (
	"testing"

	"repro/internal/fs"
	"repro/internal/fs/ext2sim"
)

func TestJournalPlacementReserved(t *testing.T) {
	f, err := New(262144, Ordered)
	if err != nil {
		t.Fatal(err)
	}
	// The journal occupies group 1's leading data area; data
	// allocations must never land inside it.
	ino, _, err := f.Create(f.Root(), "fill", fs.Regular, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Leave headroom for the file's own indirect blocks.
	if _, err := f.Resize(ino, (f.BlocksFree()-1024)*fs.BlockSize, 0); err != nil {
		t.Fatal(err)
	}
	jStart := int64(ext2sim.GroupBlocks + 4 + ext2sim.InodesPerGroup/32)
	exts, _, _ := f.Map(ino, 0, (262144))
	for _, e := range exts {
		if e.DiskBlock < jStart+JournalBlocks && e.DiskBlock+e.Count > jStart {
			t.Fatalf("extent %+v overlaps journal [%d, %d)", e, jStart, jStart+JournalBlocks)
		}
	}
}

func TestJournalStepsAreSequentialSyncWrites(t *testing.T) {
	f, _ := New(262144, Ordered)
	_, steps, err := f.Create(f.Root(), "x", fs.Regular, 0)
	if err != nil {
		t.Fatal(err)
	}
	var jSteps []fs.IOStep
	jStart := int64(ext2sim.GroupBlocks + 4 + ext2sim.InodesPerGroup/32)
	for _, s := range steps {
		if s.Sync && s.Block >= jStart && s.Block < jStart+JournalBlocks {
			jSteps = append(jSteps, s)
		}
	}
	if len(jSteps) < 2 {
		t.Fatalf("create produced %d journal writes, want >= 2 (descriptor + blocks)", len(jSteps))
	}
	for i := 1; i < len(jSteps); i++ {
		if jSteps[i].Block != jSteps[i-1].Block+1 {
			t.Fatalf("journal writes not sequential: %d then %d", jSteps[i-1].Block, jSteps[i].Block)
		}
	}
}

func TestCommitInterval(t *testing.T) {
	f, _ := New(262144, Ordered)
	f.SetCommitOps(4)
	for i := 0; i < 3; i++ {
		if _, _, err := f.Create(f.Root(), "a"+string(rune('0'+i)), fs.Regular, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, commits, _ := f.JournalStats()
	if commits != 0 {
		t.Fatalf("committed after 3 ops with interval 4")
	}
	if _, _, err := f.Create(f.Root(), "trigger", fs.Regular, 0); err != nil {
		t.Fatal(err)
	}
	if _, commits, _ = f.JournalStats(); commits != 1 {
		t.Fatalf("commits = %d after hitting the interval, want 1", commits)
	}
}

func TestReadOnlyOpsDoNotJournal(t *testing.T) {
	f, _ := New(262144, Ordered)
	ino, _, _ := f.Create(f.Root(), "r", fs.Regular, 0)
	before, _, _ := f.JournalStats()
	for i := 0; i < 10; i++ {
		if _, _, err := f.Getattr(ino); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Lookup(f.Root(), "r"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Map(ino, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	after, _, _ := f.JournalStats()
	if after != before {
		t.Errorf("pure reads appended %d journal blocks", after-before)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		Ordered: "ordered", Writeback: "writeback", Journal: "journal",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q", m, m.String())
		}
	}
}

func TestNameOverride(t *testing.T) {
	f, _ := New(262144, Ordered)
	if f.Name() != "ext3" {
		t.Fatalf("Name = %q (embedding leaked ext2's name?)", f.Name())
	}
}

// TestJournalModeLogsAddedData checks data=journal's extra appends
// against Ordered on the same resize: one record block per 16 data
// blocks a growth adds, rounded up, and none for a shrink.
func TestJournalModeLogsAddedData(t *testing.T) {
	cases := []struct {
		name     string
		from, to int64
		want     int64
	}{
		{"grow-128K", 0, 128 << 10, 2},
		{"grow-64M", 0, 64 << 20, 1024},
		{"grow-1G", 0, 1 << 30, 16384},
		{"shrink", 1 << 20, 4 << 10, 0},
	}
	appended := func(mode Mode, from, to int64) int64 {
		f, err := New(1<<20, mode)
		if err != nil {
			t.Fatal(err)
		}
		ino, _, err := f.Create(f.Root(), "f", fs.Regular, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Resize(ino, from, 0); err != nil {
			t.Fatal(err)
		}
		before, _, _ := f.JournalStats()
		if _, err := f.Resize(ino, to, 0); err != nil {
			t.Fatal(err)
		}
		after, _, _ := f.JournalStats()
		return after - before
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := appended(Journal, c.from, c.to) - appended(Ordered, c.from, c.to); got != c.want {
				t.Errorf("Journal appended %d record blocks more than Ordered, want %d", got, c.want)
			}
		})
	}
}
