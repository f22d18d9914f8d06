package workload

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs/ext2sim"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestWholeFileReadBytesAccounted pins the byte accounting of
// OpReadWholeFile: a whole-file read of a known-size file must count
// the whole file into Counter().Bytes, not just one IOSize chunk —
// the regression under-reported MB/s by fileSize/IOSize (16x here).
func TestWholeFileReadBytesAccounted(t *testing.T) {
	m := testMount(t, 16384)
	const fileSize = 1 << 20
	const ioSize = 64 << 10
	w := &Workload{
		Name: "wholefile",
		FileSets: []FileSet{{
			Name: "d", Dir: "/d", Entries: 1, MeanSize: fileSize, PreallocFrac: 1,
		}},
		Threads: []ThreadSpec{{
			Name: "r", Count: 1, PerOpOverhead: DefaultPerOpOverhead,
			Flowops: []Flowop{{Kind: OpReadWholeFile, FileSet: "d", IOSize: ioSize}},
		}},
	}
	e, err := NewEngine(m, w, 17)
	if err != nil {
		t.Fatal(err)
	}
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	end, err := e.Run(start, start+2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := e.Counter()
	if c.Ops == 0 || c.Errors != 0 {
		t.Fatalf("counter = %+v", c)
	}
	if c.Bytes != c.Ops*fileSize {
		t.Fatalf("whole-file reads moved %d bytes over %d ops, want %d (the whole %d-byte file per op)",
			c.Bytes, c.Ops, c.Ops*fileSize, fileSize)
	}
	// The MB/s view of the same pin: IOSize-based accounting would
	// report fileSize/ioSize = 16x less than the bytes actually moved.
	elapsed := (end - start).Seconds()
	mbps := float64(c.Bytes) / elapsed / 1e6
	mbpsIfIOSize := float64(c.Ops*ioSize) / elapsed / 1e6
	if mbps < 8*mbpsIfIOSize {
		t.Errorf("MB/s = %.1f, want at least 8x the IOSize-accounted %.1f", mbps, mbpsIfIOSize)
	}
}

// TestCreateBytesAccountDrawnSize pins OpCreate's byte accounting:
// the initial write moves the drawn file size, not op.IOSize (which
// is zero for create flowops in every stock personality).
func TestCreateBytesAccountDrawnSize(t *testing.T) {
	m := testMount(t, 16384)
	const meanSize = 32 << 10
	w := &Workload{
		Name: "creates",
		FileSets: []FileSet{{
			Name: "c", Dir: "/c", Entries: 100000, MeanSize: meanSize, PreallocFrac: 0,
		}},
		Threads: []ThreadSpec{{
			Name: "w", Count: 1, PerOpOverhead: DefaultPerOpOverhead,
			Flowops: []Flowop{{Kind: OpCreate, FileSet: "c"}},
		}},
	}
	e, err := NewEngine(m, w, 19)
	if err != nil {
		t.Fatal(err)
	}
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(start, start+sim.Second); err != nil {
		t.Fatal(err)
	}
	c := e.Counter()
	if c.Ops == 0 || c.Errors != 0 {
		t.Fatalf("counter = %+v", c)
	}
	// Fixed sizes (ParetoAlpha 0): every create writes exactly meanSize.
	if c.Bytes != c.Ops*meanSize {
		t.Fatalf("creates moved %d bytes over %d ops, want %d (%d per drawn file)",
			c.Bytes, c.Ops, c.Ops*meanSize, meanSize)
	}
}

// TestZipfPickRankFrequency is the aliasing regression: the Zipf
// sampler ranges over spec.Entries ranks, and with a live-name list
// half that size (PreallocFrac 0.5) the old `% n` fold aliased rank
// i+n onto file i, inflating mid- and tail-rank frequencies by up to
// ~45%. With redraws the empirical rank-frequency curve must match
// the conditional Zipf law emp(i)/emp(0) = (i+1)^-s.
func TestZipfPickRankFrequency(t *testing.T) {
	m := testMount(t, 1024)
	const entries = 100
	const live = 50
	w := &Workload{
		Name: "zipf",
		FileSets: []FileSet{{
			Name: "z", Dir: "/z", Entries: entries, MeanSize: 0, PreallocFrac: 0.5,
		}},
		Threads: []ThreadSpec{{
			Name: "r", Count: 1, PerOpOverhead: DefaultPerOpOverhead,
			Flowops: []Flowop{{Kind: OpStat, FileSet: "z", Zipf: true}},
		}},
	}
	e, err := NewEngine(m, w, 23)
	if err != nil {
		t.Fatal(err)
	}
	// pickExisting only consults st.names; build the live list without
	// touching the mount.
	sh := e.shards[0]
	st := sh.sets["z"]
	index := map[string]int{}
	for i := 0; i < live; i++ {
		path := filePath("/z", "z", i)
		st.names = append(st.names, path)
		index[path] = i
	}
	th := sh.threads[0]
	const draws = 200000
	counts := make([]int64, live)
	for i := 0; i < draws; i++ {
		path, ok := sh.pickExisting(th, st, true)
		if !ok {
			t.Fatal("pick failed with live names")
		}
		counts[index[path]]++
	}
	if counts[0] == 0 {
		t.Fatal("rank 0 never picked")
	}
	// s = 1.1 is the exponent NewEngine builds filesets with.
	const s = 1.1
	for _, rank := range []int{10, 25, 49} {
		want := math.Pow(float64(rank+1), -s)
		got := float64(counts[rank]) / float64(counts[0])
		if rel := math.Abs(got-want) / want; rel > 0.20 {
			t.Errorf("rank %d frequency ratio %.4f, want %.4f (Zipf law) — off by %.0f%%, aliasing?",
				rank, got, want, rel*100)
		}
	}
}

// TestZipfPickSingleLiveFile covers the clamp fallback: with one live
// file out of many ranks, picks must terminate and hit that file.
func TestZipfPickSingleLiveFile(t *testing.T) {
	m := testMount(t, 1024)
	w := &Workload{
		Name: "zipf1",
		FileSets: []FileSet{{
			Name: "z", Dir: "/z", Entries: 100000, MeanSize: 0, PreallocFrac: 0,
		}},
		Threads: []ThreadSpec{{
			Name: "r", Count: 1, PerOpOverhead: DefaultPerOpOverhead,
			Flowops: []Flowop{{Kind: OpStat, FileSet: "z", Zipf: true}},
		}},
	}
	e, err := NewEngine(m, w, 29)
	if err != nil {
		t.Fatal(err)
	}
	sh := e.shards[0]
	st := sh.sets["z"]
	only := filePath("/z", "z", 0)
	st.names = append(st.names, only)
	th := sh.threads[0]
	for i := 0; i < 1000; i++ {
		path, ok := sh.pickExisting(th, st, true)
		if !ok || path != only {
			t.Fatalf("pick %d = (%q, %v), want the only live file", i, path, ok)
		}
	}
}

// seqCursorMount builds an immediate-mode engine on a fault-injectable
// device for driving execOp directly.
func seqCursorMount(t *testing.T, fileSize int64, ioSize int64) (*Engine, *device.Faulty, string) {
	t.Helper()
	fsys, err := ext2sim.New(262144)
	if err != nil {
		t.Fatal(err)
	}
	faulty := device.NewFaulty(
		device.NewHDD(device.DefaultHDD(), sim.NewRNG(21)),
		device.FaultPolicy{}, sim.NewRNG(22))
	m := vfs.New(fsys, faulty,
		cache.NewHierarchy(cache.New(16384, cache.NewLRU()), nil),
		vfs.DefaultConfig())
	w := &Workload{
		Name: "seq",
		FileSets: []FileSet{{
			Name: "s", Dir: "/s", Entries: 1, MeanSize: fileSize, PreallocFrac: 1,
		}},
		Threads: []ThreadSpec{{
			Name: "r", Count: 1, PerOpOverhead: DefaultPerOpOverhead,
			Flowops: []Flowop{{Kind: OpReadSeq, FileSet: "s", IOSize: ioSize}},
		}},
	}
	e, err := NewEngine(m, w, 31)
	if err != nil {
		t.Fatal(err)
	}
	start, err := e.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	e.shards[0].threads[0].now = start
	return e, faulty, filePath("/s", "s", 0)
}

// TestSeqCursorNotAdvancedOnError is the stuck-file regression: an
// errored sequential read must leave the cursor where it was instead
// of silently walking it forward by IOSize.
func TestSeqCursorNotAdvancedOnError(t *testing.T) {
	e, faulty, path := seqCursorMount(t, 1<<20, 4<<10)
	sh := e.shards[0]
	th := sh.threads[0]
	op := th.spec.Flowops[0]
	// One clean read to open the fd and advance the cursor once.
	if err := sh.execOp(th, op); err != nil {
		t.Fatal(err)
	}
	if got := th.cursors[path]; got != 4<<10 {
		t.Fatalf("cursor after clean read = %d, want %d", got, 4<<10)
	}
	if e.Counter().Errors != 0 {
		t.Fatalf("clean read errored: %+v", e.Counter())
	}
	// Now every device read fails; the cached pages are dropped so the
	// next read must go to the (failing) device.
	faulty.Policy.ReadErrProb = 1
	e.DropCaches()
	before := th.cursors[path]
	if err := sh.execOp(th, op); err != nil {
		t.Fatal(err)
	}
	if e.Counter().Errors == 0 {
		t.Fatal("injected read fault did not surface")
	}
	if got := th.cursors[path]; got != before {
		t.Fatalf("cursor advanced to %d across an errored read, want %d", got, before)
	}
}

// TestSeqCursorAdvancesByShortRead pins the short-read half: a
// sequential read clamped at EOF advances the cursor by the bytes
// actually read, landing exactly on EOF instead of past it.
func TestSeqCursorAdvancesByShortRead(t *testing.T) {
	const fileSize = 10 << 10 // 2.5 reads of 4 KB
	e, _, path := seqCursorMount(t, fileSize, 4<<10)
	sh := e.shards[0]
	th := sh.threads[0]
	op := th.spec.Flowops[0]
	wantCursors := []int64{4 << 10, 8 << 10, fileSize} // 4k, 8k, 8k+2k
	for i, want := range wantCursors {
		if err := sh.execOp(th, op); err != nil {
			t.Fatal(err)
		}
		if got := th.cursors[path]; got != want {
			t.Fatalf("cursor after read %d = %d, want %d", i+1, got, want)
		}
	}
	if errs := e.Counter().Errors; errs != 0 {
		t.Fatalf("%d errors during short-read sequence", errs)
	}
	// Bytes moved: two full reads plus the 2 KB tail.
	if got, want := e.Counter().Bytes, int64(fileSize); got != want {
		t.Fatalf("bytes = %d, want %d (full file once)", got, want)
	}
	// The next read wraps to offset 0.
	if err := sh.execOp(th, op); err != nil {
		t.Fatal(err)
	}
	if got := th.cursors[path]; got != 4<<10 {
		t.Fatalf("cursor after wrap = %d, want %d", got, 4<<10)
	}
}
