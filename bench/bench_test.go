package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []Metric `json:"end_to_end"`
	PerLayer  []Metric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload at a small size — two untraced reps, a
// traced rep with its Chrome dump, and core.Experiment's own run — and
// every layer leg, and checks that the reps agree and that every
// metric BENCHMARK.json names is produced under its unit.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	emitted := map[string]bool{}
	for _, w := range Workloads(true) {
		t.Run(w.Name, func(t *testing.T) {
			for name := range smokeWorkload(t, w, dir) {
				emitted[name] = true
			}
		})
	}
	results, sizes, err := RunLegs(7, true, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.NSPerOp <= 0 {
			t.Errorf("leg %s: %v ns/op", r.Name, r.NSPerOp)
		}
		emitted[r.Name] = true
		emitted[AllocsName(r.Name)] = true
	}
	for name, v := range sizes {
		if v <= 0 {
			t.Errorf("%s = %v", name, v)
		}
		emitted[name] = true
	}

	bf := readBenchmarkFile(t)
	checkList := func(kind string, declared, registered []Metric) {
		if len(declared) != len(registered) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the registry %d", kind, len(declared), len(registered))
		}
		units := map[string]Metric{}
		for _, m := range registered {
			units[m.Name] = m
		}
		for _, m := range declared {
			if reg, ok := units[m.Name]; !ok || reg != m {
				t.Errorf("%s: BENCHMARK.json has %+v, the registry %+v", kind, m, reg)
			}
			if !emitted[m.Name] {
				t.Errorf("%s: %s is never emitted", kind, m.Name)
			}
		}
	}
	checkList("end_to_end", bf.EndToEnd, EndToEnd)
	checkList("per_layer", bf.PerLayer, PerLayer)
}

// smokeWorkload runs two untraced reps of w, a traced rep with its
// Chrome dump, and core.Experiment's own run, checks them, and returns
// the metric names their values cover.
func smokeWorkload(t *testing.T, w *Workload, dir string) map[string][]float64 {
	const seed = 7
	tracePath := filepath.Join(dir, "replay.fsbt")
	if w.TraceRecords > 0 {
		if err := WriteTrace(tracePath, w.TraceRecords, seed); err != nil {
			t.Fatal(err)
		}
	}
	var untraced []*Rep
	for i := 0; i < 2; i++ {
		r, err := RunRep(w, seed, tracePath, nil)
		if err != nil {
			t.Fatal(err)
		}
		untraced = append(untraced, r)
	}
	tr := NewTracer()
	traced, err := RunRep(w, seed, tracePath, tr)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	dump := filepath.Join(dir, w.Name+".trace.json")
	if err := tr.WriteChrome(dump, w.Name); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dump)
	if err != nil || !json.Valid(data) || !bytes.Contains(data, []byte(`{"name":"workload.run",`)) {
		t.Fatalf("Chrome trace is not JSON with a workload.run span (%v)", err)
	}
	exp, err := RunExperiment(w, seed, tracePath)
	if err != nil {
		t.Fatalf("experiment: %v", err)
	}
	if failures, _ := Check(w, append(untraced, traced), exp); len(failures) > 0 {
		t.Fatalf("checks failed: %v", failures)
	}
	if untraced[0].Failed != 0 {
		t.Errorf("%d of %d ops failed", untraced[0].Failed, untraced[0].Attempted)
	}
	values := EndToEndValues(untraced)
	for name, v := range PerLayerValues(untraced, []*Rep{traced}) {
		values[name] = v
	}
	return values
}

// TestNames checks that the workloads BENCHMARK.json declares are the
// ones this package defines, with the same reasons, and that every
// name is unique and made of the allowed characters.
func TestNames(t *testing.T) {
	bf := readBenchmarkFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	ws := Workloads(false)
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package %d", len(bf.Workloads), len(ws))
	}
	seen := map[string]bool{}
	for i, w := range bf.Workloads {
		if w.Name != ws[i].Name || w.Why != ws[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), package %q (%s)", i, w.Name, w.Why, ws[i].Name, ws[i].Why)
		}
		seen[w.Name] = true
	}
	for _, m := range append(append([]Metric{}, bf.EndToEnd...), bf.PerLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestPerturbedDigestFails checks that a rep whose simulated statistics
// differ from the reference fails the check, and condemns only itself.
func TestPerturbedDigestFails(t *testing.T) {
	w, _ := Lookup(Workloads(true), "write-mix")
	ref, err := RunRep(w, 3, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if failures, _ := Check(w, []*Rep{ref, ref}, nil); len(failures) != 0 {
		t.Fatalf("identical reps fail: %v", failures)
	}
	moved := *ref
	moved.Stats.Cache.Evictions++
	moved.Digest = moved.Stats.Digest()
	failures, bad := Check(w, []*Rep{ref, &moved}, nil)
	if len(failures) == 0 || bad[0] || !bad[1] {
		t.Fatalf("perturbed rep: failures %v, condemned %v", failures, bad)
	}
	forged := *ref
	forged.Digest = "forged"
	if failures, bad := Check(w, []*Rep{&forged, ref}, nil); len(failures) == 0 || !bad[0] || !bad[1] {
		t.Fatalf("forged reference digest: failures %v, condemned %v", failures, bad)
	}
}
