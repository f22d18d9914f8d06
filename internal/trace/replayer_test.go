package trace

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// noHorizon is far enough out that any replay exhausts its trace
// first: every record is offered and serviced.
const noHorizon = sim.Time(1) << 62

// engineRun is one replay on a fresh stack, as runEngine drove it.
type engineRun struct {
	eng        *Engine
	hist       *metrics.Histogram
	per        *metrics.PerOwner
	start, end sim.Time // replay window: after Setup, to the last op's return
}

// runEngine replays cfg on a fresh test mount, the way core's
// Experiment drives an engine: Setup, then Run for until past it.
func runEngine(t *testing.T, cfg EngineConfig, until sim.Time) engineRun {
	t.Helper()
	m := testMount(t)
	eng, err := NewEngine(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := engineRun{eng: eng, hist: &metrics.Histogram{}, per: &metrics.PerOwner{}}
	eng.SetProbe(&workload.Probe{Hist: r.hist, PerOwner: r.per})
	r.start, err = eng.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	r.end, err = eng.Run(r.start, r.start+until)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// captureFileServer records 2 s of a FileServer workload.
func captureFileServer(t *testing.T, threads int) *Trace {
	t.Helper()
	m := testMount(t)
	eng, err := workload.NewEngine(m, workload.FileServer(20, 32<<10, threads), 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	eng.SetProbe(&workload.Probe{Trace: rec.Hook()})
	start, err := eng.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(start, start+2*sim.Second); err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

// TestEngineDeterministic replays the same capture twice on fresh
// stacks: every observable number must be bit-identical.
func TestEngineDeterministic(t *testing.T) {
	tr := captureFileServer(t, 2)
	run := func() (metrics.Counter, string) {
		r := runEngine(t, EngineConfig{Mode: Timed, Tenants: []Source{MemorySource(tr)}}, noHorizon)
		fp := ""
		for i := 0; i < metrics.NumBuckets; i++ {
			if c := r.hist.BucketCount(i); c != 0 {
				fp += string(rune('a'+i%26)) + ":" + string(rune('0'+c%10)) + " "
			}
		}
		return r.eng.Counter(), fp
	}
	c1, h1 := run()
	c2, h2 := run()
	if c1 != c2 || h1 != h2 {
		t.Errorf("replay not deterministic: %+v %q vs %+v %q", c1, h1, c2, h2)
	}
}

// TestReplayFDCap bounds the per-stream descriptor table the way a
// process rlimit would: touching many more files than the cap must
// leave at most MaxOpenFDs handles open.
func TestReplayFDCap(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 32; i++ {
		tr.Records = append(tr.Records, Record{
			At: sim.Time(i) * 1000, Kind: workload.OpOpen,
			Path: "/f" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
		})
	}
	eng := runEngine(t, EngineConfig{
		Mode: Timed, Tenants: []Source{MemorySource(tr)}, MaxOpenFDs: 4,
	}, sim.Time(3600)*sim.Second).eng
	st := eng.tenants[0].streams[0]
	if len(st.fds) > 4 {
		t.Errorf("stream holds %d open FDs, cap is 4", len(st.fds))
	}
	if len(st.fds) != len(st.fdOrder) {
		t.Errorf("fd map (%d) and order (%d) out of sync", len(st.fds), len(st.fdOrder))
	}
}

// TestReplayCloseAndDeleteReleaseFDs locks in the two descriptor
// lifecycle fixes: OpClose actually closes the named handle, and
// OpDelete releases handles before unlinking instead of silently
// dropping them.
func TestReplayCloseAndDeleteReleaseFDs(t *testing.T) {
	tr := &Trace{Records: []Record{
		{At: 0, Kind: workload.OpOpen, Path: "/a"},
		{At: 100, Kind: workload.OpOpen, Path: "/b"},
		{At: 200, Kind: workload.OpClose, Path: "/a"},
		{At: 300, Kind: workload.OpDelete, Path: "/b"},
	}}
	eng := runEngine(t, EngineConfig{
		Mode: Timed, Tenants: []Source{MemorySource(tr)},
	}, sim.Time(3600)*sim.Second).eng
	st := eng.tenants[0].streams[0]
	if len(st.fds) != 0 {
		t.Errorf("stream still holds %d FDs after close+delete", len(st.fds))
	}
	if eng.Counter().Errors != 0 {
		t.Errorf("lifecycle ops errored: %d", eng.Counter().Errors)
	}
}

// TestReplayErrorAccounting: an op that fails (stat of a deleted
// path) is counted as an error, not as a success and not silently
// skipped.
func TestReplayErrorAccounting(t *testing.T) {
	tr := &Trace{Records: []Record{
		{At: 0, Kind: workload.OpDelete, Path: "/a"},
		{At: 1000, Kind: workload.OpStat, Path: "/a"},
	}}
	r := runEngine(t, EngineConfig{
		Mode: Timed, Tenants: []Source{MemorySource(tr)},
	}, sim.Time(3600)*sim.Second)
	if got := r.eng.Counter().Errors; got != 1 {
		t.Fatalf("errors = %d, want 1 (stat of deleted path)", got)
	}
	if got := r.eng.Counter().Ops; got != 1 {
		t.Errorf("ops = %d, want 1 (the delete)", got)
	}
	if got := r.hist.Count(); got != 1 {
		t.Errorf("success histogram holds %d observations, want 1", got)
	}
}

// TestReplayNamespaceReconstruction: reads of files the capture never
// creates must hit pre-sized files (real I/O), not holes in empty
// lazily-created ones.
func TestReplayNamespaceReconstruction(t *testing.T) {
	tr := &Trace{Records: []Record{
		{At: 0, Kind: workload.OpReadRand, Path: "/data/f", Offset: 1 << 20, Size: 4096},
	}}
	eng := runEngine(t, EngineConfig{
		Mode: Timed, Tenants: []Source{MemorySource(tr)},
	}, sim.Time(3600)*sim.Second).eng
	if eng.Counter().Errors != 0 {
		t.Fatalf("read of pre-existing file errored")
	}
	if got := eng.Counter().Bytes; got != 4096 {
		t.Errorf("read moved %d bytes, want 4096 (file must be pre-sized)", got)
	}
}

// TestReplayHorizonAbandonsBacklog: a timed replay cut short reports
// offered-but-not-completed load instead of pretending it finished.
func TestReplayHorizonAbandonsBacklog(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 50; i++ {
		tr.Records = append(tr.Records, Record{
			At: sim.Time(i) * sim.Millisecond, Kind: workload.OpReadRand,
			Path: "/big", Offset: int64(i) * 997 * 4096, Size: 4096,
		})
	}
	load := runEngine(t, EngineConfig{
		Mode: Timed, Tenants: []Source{MemorySource(tr)},
	}, 10*sim.Millisecond).eng.Load()
	if load.Offered == 0 {
		t.Fatal("timed replay never touched the load gauge")
	}
	if load.Completed >= load.Offered {
		t.Errorf("offered %d completed %d: horizon should abandon backlog",
			load.Offered, load.Completed)
	}
}

// TestMultiTenantMerge: K tenants replaying the same capture get
// distinct namespaces, distinct owner ranges, and K× the records.
func TestMultiTenantMerge(t *testing.T) {
	tr := &Trace{Records: []Record{
		{At: 0, Kind: workload.OpCreate, Path: "/a", Stream: 0},
		{At: 1000, Kind: workload.OpWriteSeq, Path: "/a", Size: 4096, Stream: 0},
		{At: 2000, Kind: workload.OpReadRand, Path: "/a", Size: 4096, Stream: 1},
	}}
	src := MemorySource(tr)
	r := runEngine(t, EngineConfig{
		Mode: Timed, Tenants: []Source{src, src, src},
	}, sim.Time(3600)*sim.Second)
	eng := r.eng
	if got := eng.Workers(); got != 6 {
		t.Fatalf("workers = %d, want 6 (2 streams x 3 tenants)", got)
	}
	if got := eng.Records(); got != 9 {
		t.Errorf("records = %d, want 9", got)
	}
	if got := eng.Counter().Ops + eng.Counter().Errors; got != 9 {
		t.Errorf("replayed %d of 9 records", got)
	}
	// Every tenant's owners must have recorded: the merge keeps
	// per-tenant identity for fairness accounting.
	ops := r.per.OpsPadded(6)
	for owner, n := range ops {
		if n == 0 {
			t.Errorf("owner %d recorded nothing — per-tenant identity lost", owner)
		}
	}
}

// flakySource serves an in-memory trace for its first ok Opens and
// fails every later one, counting the iterators left open.
type flakySource struct {
	t    *Trace
	ok   int
	live int
}

func (s *flakySource) Open() (Iterator, error) {
	if s.ok == 0 {
		return nil, errors.New("trace: source unavailable")
	}
	s.ok--
	it, err := MemorySource(s.t).Open()
	if err != nil {
		return nil, err
	}
	s.live++
	return countedIterator{it, &s.live}, nil
}

type countedIterator struct {
	Iterator
	live *int
}

func (it countedIterator) Close() error {
	*it.live--
	return it.Iterator.Close()
}

// TestRunOpenErrorDoesNotLeak: a Run whose source fails to open
// returns the error with the mount out of event mode, every iterator
// it opened closed, and no write-back daemon stranded on a goroutine
// waiting for a loop that never runs.
func TestRunOpenErrorDoesNotLeak(t *testing.T) {
	m := testMount(t)
	before := runtime.NumGoroutine()
	for _, mode := range []ReplayMode{Timed, AFAP} {
		for i := 0; i < 100; i++ {
			// The scan in NewEngine opens once; afap then opens once
			// per stream and fails on its second stream.
			src := &flakySource{t: identityTrace(), ok: 2}
			if mode == Timed {
				src.ok = 1
			}
			eng, err := NewEngine(m, EngineConfig{Mode: mode, Tenants: []Source{src}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(0, noHorizon); err == nil {
				t.Fatalf("%v: Run succeeded over a source that fails to open", mode)
			}
			if m.InEvents() {
				t.Fatalf("%v: mount left in event mode", mode)
			}
			if src.live != 0 {
				t.Fatalf("%v: %d iterators left open", mode, src.live)
			}
		}
	}
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Errorf("200 failed Runs raised the goroutine count from %d to %d", before, after)
	}
}
