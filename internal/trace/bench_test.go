package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// benchRecords is sized so the CI benchmark leg replays a
// million-record trace: large enough that any O(records) memory in
// the replay path would dominate bytes/op, which must instead stay
// O(streams + path dictionary).
const benchRecords = 1 << 20

// writeBenchTrace streams a synthetic million-record trace to disk:
// 8 submission streams, 64 distinct paths, one stat per microsecond.
func writeBenchTrace(b *testing.B) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.fsbt")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w := NewWriter(f)
	for i := 0; i < benchRecords; i++ {
		if err := w.Write(Record{
			At:     sim.Time(i) * 1000,
			Kind:   workload.OpStat,
			Path:   fmt.Sprintf("/bench/f%02d", i%64),
			Owner:  i % 8,
			Stream: i % 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

func benchReplay(b *testing.B, mode ReplayMode) {
	path := writeBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := testMount(b)
		b.StartTimer()
		eng, err := NewEngine(m, EngineConfig{
			Mode: mode, Tenants: []Source{FileSource(path)},
		})
		if err != nil {
			b.Fatal(err)
		}
		eng.SetProbe(&workload.Probe{})
		start, err := eng.Setup(0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(start, noHorizon); err != nil {
			b.Fatal(err)
		}
		if got := eng.Counter().Ops + eng.Counter().Errors; got != benchRecords {
			b.Fatalf("replayed %d of %d records", got, benchRecords)
		}
	}
	b.ReportMetric(float64(benchRecords)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkTraceReplay replays a million-record trace file end to end
// through the streaming reader and the event-kernel engine — the CI
// artifact's evidence that replay memory scales with streams, not
// records.
func BenchmarkTraceReplay(b *testing.B) {
	b.Run("timed", func(b *testing.B) { benchReplay(b, Timed) })
	b.Run("afap", func(b *testing.B) { benchReplay(b, AFAP) })
}
