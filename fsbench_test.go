package fsbench

// Integration tests through the public API only — what a downstream
// user of the library would write.

import (
	"bytes"
	"strings"
	"testing"
)

func TestPublicAPIQuickExperiment(t *testing.T) {
	stack := benchStack()
	exp := &Experiment{
		Name:          "api-smoke",
		Stack:         stack,
		Workload:      RandomRead(8<<20, 2<<10, 1),
		Runs:          3,
		Duration:      10 * Second,
		MeasureWindow: 5 * Second,
		Seed:          1,
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Mean <= 0 || res.Throughput.N != 3 {
		t.Fatalf("summary = %+v", res.Throughput)
	}
	if res.Hist.Count() == 0 {
		t.Fatal("no latencies")
	}
	if res.Flags.Any() {
		t.Errorf("in-memory workload flagged: %v", res.Flags)
	}
}

func TestPublicAPIPaperStack(t *testing.T) {
	stack := PaperStack()
	if stack.RAMBytes != 512<<20 {
		t.Fatalf("paper stack RAM = %d", stack.RAMBytes)
	}
	if mb := stack.CacheBytesMean() >> 20; mb < 400 || mb > 420 {
		t.Fatalf("paper cache = %d MB, want ~410", mb)
	}
}

func TestPublicAPIClassify(t *testing.T) {
	w := RandomRead(16<<20, 2<<10, 1)
	cov := ClassifyWorkload(w, 410<<20)
	if cov[DimCaching] != Isolates {
		t.Errorf("classification = %v", cov)
	}
}

func TestPublicAPICompare(t *testing.T) {
	mk := func(seed uint64) *Result {
		exp := &Experiment{
			Name:     "cmp",
			Stack:    benchStack(),
			Workload: RandomRead(8<<20, 2<<10, 1),
			Runs:     3, Duration: 8 * Second, MeasureWindow: 4 * Second,
			Seed: seed,
		}
		res, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cmp := Compare(mk(1), mk(50), 0.05)
	if cmp.Verdict.String() == "" {
		t.Fatal("no verdict")
	}
}

func TestPublicAPIWDLRoundTrip(t *testing.T) {
	w := WebServer(100, 16<<10, 2)
	text := FormatWDL(w)
	parsed, err := ParseWDL(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != w.Name {
		t.Fatalf("round trip lost name: %q", parsed.Name)
	}
	if _, ok := WorkloadByName("varmail"); !ok {
		t.Fatal("varmail personality missing")
	}
}

func TestPublicAPISurvey(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderSurvey(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Postmark") {
		t.Fatal("survey render incomplete")
	}
	if len(SurveyTable1()) != 19 {
		t.Fatal("table rows wrong")
	}
}

func TestPublicAPINanoSuite(t *testing.T) {
	suite := DefaultNanoSuite()
	// Run just the meta benches (fast) through the public types.
	sub := &NanoSuite{Benchmarks: suite.Benchmarks[8:11]}
	scores, err := sub.RunAll(benchStack(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores = %d", len(scores))
	}
	for _, s := range scores {
		if s.Value <= 0 {
			t.Errorf("%s: %v", s.Name, s.Value)
		}
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	stack := benchStack()
	tr, err := RecordWorkload(FileServer(10, 16<<10, 1), stack, 2*Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) == 0 {
		t.Fatal("empty trace")
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	exp := &Experiment{
		Name:  "trace-roundtrip",
		Stack: stack,
		Trace: &TraceReplay{Tenants: []TraceSource{TraceMemorySource(tr)}, Mode: ReplayAFAP},
		Seed:  7,
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRun[0].Ops == 0 {
		t.Fatal("replay did nothing")
	}
}

func TestPublicAPICliffSearch(t *testing.T) {
	stack := benchStack()
	cfg := SelfScaleConfig{Stack: stack, Runs: 1, Duration: 8 * Second, Window: 4 * Second, Seed: 2}
	base := SelfScaleParams{IOSize: 2 << 10, ReadFrac: 1, SeqFrac: 0, Threads: 1}
	cliff, err := CliffSearch(cfg, base, 16<<20, 160<<20, 3, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if cliff.Width() > 4<<20 {
		t.Fatalf("cliff width %d", cliff.Width())
	}
}
