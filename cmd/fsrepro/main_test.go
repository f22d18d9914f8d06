package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	fsbench "repro"
)

var update = flag.Bool("update", false, "rewrite the golden CSV files")

// tinyProtocol is the fixed smoke-scale protocol behind the goldens:
// seconds of virtual time, two runs, seed 1. Everything in it is
// pinned — the goldens are byte-exact, so any change here (or to the
// simulator) shows up as a diff, which is the point.
func tinyProtocol(t *testing.T) Protocol {
	return Protocol{
		Runs:     2,
		Duration: 2 * fsbench.Second,
		Window:   1 * fsbench.Second,
		// Figures 2 and 4 run their own horizons; 30 s still shows
		// the cold start in 10 s buckets.
		Fig2Duration: 30 * fsbench.Second,
		Fig4Duration: 30 * fsbench.Second,
		Seed:         1,
		OutDir:       t.TempDir(),
		Tiny:         true,
	}
}

// silence routes the figures' stdout/stderr narration to /dev/null
// for the duration of the test; only the CSV files matter here.
func silence(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devnull, devnull
	t.Cleanup(func() {
		os.Stdout, os.Stderr = savedOut, savedErr
		devnull.Close()
	})
}

// TestFigureCSVGoldens regenerates the derived figures' CSV outputs at
// a tiny fixed-seed configuration and compares them byte-for-byte
// against committed goldens. Run with -update after an intentional
// simulator or figure change:
//
//	go test ./cmd/fsrepro -run TestFigureCSVGoldens -update
func TestFigureCSVGoldens(t *testing.T) {
	figures := []struct {
		name string
		run  func(Protocol) error
		csvs []string
	}{
		{"figure1", figure1, []string{"figure1.csv", "figure1fine.csv"}},
		{"figure1zoom", figure1zoom, []string{"figure1zoom.csv"}},
		{"figure2", figure2, []string{"figure2.csv"}},
		{"figure3", figure3, []string{"figure3.csv"}},
		{"figure4", figure4, []string{"figure4.csv"}},
		{"contention", figureContention, []string{"contention.csv"}},
		{"qdsweep", figureQDSweep, []string{"qdsweep.csv"}},
		{"fairness", figureFairness, []string{"fairness.csv"}},
		{"openloop", figureOpenLoop, []string{"openloop.csv"}},
		{"tracereplay", figureTraceReplay, []string{"tracereplay.csv"}},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			proto := tinyProtocol(t)
			silence(t)
			if err := fig.run(proto); err != nil {
				t.Fatalf("figure %s: %v", fig.name, err)
			}
			for _, csv := range fig.csvs {
				checkGolden(t, proto, csv)
			}
		})
	}
}

// TestTraceReplayFigureIgnoresShards: trace replay and its capture
// run on one stack, so the trace-replay figure must not take the
// protocol's shard knobs. At Shards 2, in either mode, it writes
// exactly the one-shard golden.
func TestTraceReplayFigureIgnoresShards(t *testing.T) {
	for _, mode := range []string{fsbench.ShardModeReplica, fsbench.ShardModeSharedDevice} {
		proto := tinyProtocol(t)
		proto.Shards, proto.ShardMode = 2, mode
		silence(t)
		if err := figureTraceReplay(proto); err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		checkGolden(t, proto, "tracereplay.csv")
	}
}

// checkGolden compares one CSV the figure wrote against its golden,
// or rewrites the golden under -update.
func checkGolden(t *testing.T, proto Protocol, csv string) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(proto.OutDir, csv))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", csv+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s\n--- got ---\n%s\n--- want ---\n%s",
			csv, golden, got, want)
	}
}
