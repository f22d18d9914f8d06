package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
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
// process rlimit would: touching more files than the cap leaves
// exactly maxOpenFDs handles open.
func TestReplayFDCap(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < maxOpenFDs+44; i++ {
		tr.Records = append(tr.Records, Record{
			At: sim.Time(i) * 1000, Kind: workload.OpOpen,
			Path: fmt.Sprintf("/f%03d", i),
		})
	}
	eng := runEngine(t, EngineConfig{
		Mode: Timed, Tenants: []Source{MemorySource(tr)},
	}, sim.Time(3600)*sim.Second).eng
	st := eng.tenants[0].streams[0]
	if len(st.fds) != maxOpenFDs {
		t.Errorf("stream holds %d open FDs, want the cap, %d", len(st.fds), maxOpenFDs)
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
	if got := eng.workers; got != 6 {
		t.Fatalf("workers = %d, want 6 (2 streams x 3 tenants)", got)
	}
	var records int64
	for _, tn := range eng.tenants {
		records += tn.scan.Records
	}
	if records != 9 {
		t.Errorf("records = %d, want 9", records)
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

// statTrace is the host-cost benchmark's replay trace in small:
// records stats 1 µs apart, dealt round-robin over 8 streams, each of
// a path drawn from seed among 64.
func statTrace(records int, seed uint64) *Trace {
	rng := sim.NewRNG(seed)
	tr := &Trace{}
	for i := 0; i < records; i++ {
		tr.Records = append(tr.Records, Record{
			At: sim.Time(i) * sim.Microsecond, Kind: workload.OpStat,
			Path:  fmt.Sprintf("/bench/f%02d", rng.Intn(64)),
			Owner: i % 8, Stream: i % 8,
		})
	}
	return tr
}

// TestReplayKernelCounters pins the loop tallies of a timed replay of
// the benchmark's stat trace. A stat takes 3.875 µs and each stream's
// next record comes 8 µs after its last, so every record finds its
// stream idle: the dispatcher's event hands it over and resumes the
// stream's worker, and the stream's own event, once the stat returns,
// finds it idle again. That is two events and one process resume per
// record; neither event is a process.
func TestReplayKernelCounters(t *testing.T) {
	const records = 4096
	eng := runEngine(t, EngineConfig{
		Mode: Timed, Tenants: []Source{MemorySource(statTrace(records, 7))},
	}, records*sim.Microsecond+sim.Millisecond).eng
	want := sim.Counters{Events: 8201, Resumes: 4112, InPlace: 0, Spawned: 8}
	if eng.kernel != want {
		t.Errorf("kernel tallies %+v, want %+v", eng.kernel, want)
	}
	if got := eng.Counter().Ops; got != records {
		t.Errorf("ops = %d, want %d", got, records)
	}
}

// mixedTrace is a five-stream capture with one to three records at
// each millisecond, each on a stream drawn at random. Most stat or
// overwrite small files the cache holds; one in twelve reads a random
// page of the pre-sized /d/big, which after DropCaches takes
// milliseconds on the test disk. So some records reach a stream still
// busy with an earlier one and queue, and others reach an idle one.
func mixedTrace() *Trace {
	rng := sim.NewRNG(5)
	tr := &Trace{}
	for at := sim.Time(0); at < 200*sim.Millisecond; at += sim.Millisecond {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			st := rng.Intn(5)
			rec := Record{At: at, Stream: st, Owner: st}
			switch k := rng.Intn(12); {
			case k == 0:
				rec.Kind, rec.Path = workload.OpReadRand, "/d/big"
				rec.Offset, rec.Size = int64(rng.Intn(2048))*4096, 4096
			case k < 4:
				rec.Kind, rec.Path = workload.OpWriteRand, fmt.Sprintf("/d/w%d", rng.Intn(4))
				rec.Offset, rec.Size = int64(rng.Intn(16))*4096, 4096
			default:
				rec.Kind, rec.Path = workload.OpStat, fmt.Sprintf("/d/w%d", rng.Intn(4))
			}
			tr.Records = append(tr.Records, rec)
		}
	}
	return tr
}

// replayed is one pinned replay: the sha256 of every op the probe saw,
// in call order, then the counter, the load gauge and the end time;
// the load gauge; and how many ops were issued while their stream's
// previous op was still running (busy) or not (idle).
type replayed struct {
	digest     string
	load       metrics.LoadGauge
	busy, idle int
}

// replayDigest replays cfg cold on a fresh test mount until the
// horizon.
func replayDigest(t *testing.T, cfg EngineConfig, until sim.Time) replayed {
	t.Helper()
	eng, err := NewEngine(testMount(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var r replayed
	h := sha256.New()
	last := map[int]sim.Time{}
	eng.SetProbe(&workload.Probe{Trace: func(owner int, kind workload.OpKind, path string, offset, size int64, start, done sim.Time) {
		fmt.Fprintf(h, "%d %v %s %d %d %d %d\n", owner, kind, path, offset, size, start, done)
		if start < last[owner] {
			r.busy++
		} else {
			r.idle++
		}
		last[owner] = done
	}})
	start, err := eng.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	eng.DropCaches()
	end, err := eng.Run(start, start+until)
	if err != nil {
		t.Fatal(err)
	}
	r.load = eng.Load()
	fmt.Fprintf(h, "%+v %+v %d\n", eng.Counter(), r.load, end-start)
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r
}

// TestReplayOrderPinned pins the order in which a replay executes:
// every op with its timing, in the order the probe sees them, under
// each discipline. Two runs of one build agreeing says nothing about
// a change to the engine; these literals do.
func TestReplayOrderPinned(t *testing.T) {
	src := MemorySource(mixedTrace())
	cases := []struct {
		name  string
		cfg   EngineConfig
		until sim.Time
		want  string
	}{
		{"timed", EngineConfig{Mode: Timed}, noHorizon, "b2fd48ce039cf733352ddaf562e5090305834a073fb2ec9daa55a843067baebc"},
		// The horizon falls mid-trace, with streams backlogged behind
		// cold reads: the run abandons what they still hold.
		{"timed-horizon", EngineConfig{Mode: Timed}, 100 * sim.Millisecond, "138791ab6d744e7e1cb8634a6e47c5019aa118f4bcd17034891aeef8d62ff8b4"},
		{"scaled-x2", EngineConfig{Mode: Scaled, Scale: 2}, noHorizon, "6bca41eceb4c6f808aba3d1b99eb96da428bf035d9f47aee99d0beb84489abf0"},
		{"afap", EngineConfig{Mode: AFAP}, noHorizon, "bb1b28356629e2749320d99f74be5459477663b357050321cf38ba71d9b6b2ca"},
		// Two tenants' dispatchers deliver records at the same instants.
		{"timed-2-tenants", EngineConfig{Mode: Timed, Tenants: []Source{src, src}}, noHorizon, "963d98954ad5323386e8a790ceefc2af8fc84ca0948c3b67832c7578e682e82e"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Tenants == nil {
				tc.cfg.Tenants = []Source{src}
			}
			r := replayDigest(t, tc.cfg, tc.until)
			if r.digest != tc.want {
				t.Errorf("replay digest %s, want %s", r.digest, tc.want)
			}
			if tc.cfg.Mode != AFAP && (r.busy == 0 || r.idle == 0) {
				t.Errorf("%d arrivals found their stream busy and %d idle; the trace must exercise both", r.busy, r.idle)
			}
			if abandoned := r.load.Offered > r.load.Completed; abandoned != (tc.until != noHorizon) {
				t.Errorf("load %+v: a replay abandons backlog exactly when its horizon cuts it short", r.load)
			}
		})
	}
}

// TestRunMidRunErrorDoesNotLeak: a record no replayer can execute, in
// the middle of a multi-stream trace, fails the Run with its kind
// named while other streams sit on the device or idle and records are
// still to come, and leaves nothing behind: the mount out of event
// mode and every process finished.
func TestRunMidRunErrorDoesNotLeak(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 64; i++ {
		rec := Record{At: sim.Time(i) * 20 * sim.Microsecond, Stream: i % 4, Owner: i % 4, Kind: workload.OpStat, Path: "/f"}
		switch {
		case i == 33:
			rec.Kind = workload.OpKind(99)
		case i%4 == 1:
			rec.Kind, rec.Path, rec.Offset, rec.Size = workload.OpReadRand, "/big", int64(i)*16<<10, 4096
		}
		tr.Records = append(tr.Records, rec)
	}
	before := runtime.NumGoroutine()
	for _, mode := range []ReplayMode{Timed, AFAP} {
		for i := 0; i < 100; i++ {
			m := testMount(t)
			eng, err := NewEngine(m, EngineConfig{Mode: mode, Tenants: []Source{MemorySource(tr)}})
			if err != nil {
				t.Fatal(err)
			}
			start, err := eng.Setup(0)
			if err != nil {
				t.Fatal(err)
			}
			eng.DropCaches()
			_, err = eng.Run(start, noHorizon)
			if err == nil || !strings.HasPrefix(err.Error(), "trace: unreplayable record kind") {
				t.Fatalf("%v: Run returned %v, want the unreplayable record kind", mode, err)
			}
			if m.InEvents() {
				t.Fatalf("%v: mount left in event mode", mode)
			}
		}
	}
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Errorf("200 failed Runs raised the goroutine count from %d to %d", before, after)
	}
}
