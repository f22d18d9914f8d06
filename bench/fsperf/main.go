// Command fsperf measures the simulator's host cost — run time, set-up
// time, peak memory and allocation — on five workloads, end to end and
// per layer, and checks that every repetition simulated exactly the
// same thing.
//
// Usage (from the repository root):
//
//	go run ./fsperf -seed 1 -json out.json                  (inside bench/)
//	bash bench/run.sh --workload cached-read --seed 1 --seconds 15 --trace 0
//
// Each repetition runs in a fresh child process (a re-exec of fsperf)
// with GOMAXPROCS=1; only one child is alive at a time. Reps of several workloads interleave round-robin, rotating the
// order each round, so slow drift of the host hits every workload
// alike. With -trace 0 the reps are untraced and the end-to-end
// metrics are reported; with -trace 1 traced and untraced reps
// alternate, the layer legs run once, and the per-layer metrics are
// reported. The last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics; a failed check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/bench"
)

// minReps is the fewest reps a workload gets, whatever the time budget.
const minReps = 3

// maxReps caps the reps of a fast workload.
const maxReps = 60

// childProcs is every child's GOMAXPROCS.
const childProcs = 1

type options struct {
	seed    uint64
	seconds float64
	out     string
}

func main() {
	workloadName := flag.String("workload", "", "run only this workload (default: all, interleaved)")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are drawn from")
	seconds := flag.Float64("seconds", 15, "host seconds of measured Run per workload")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics from untraced reps; 1: per-layer metrics from traced reps and the layer legs")
	jsonPath := flag.String("json", "", "also write the full report (every rep, quartiles, checks) to this file")
	out := flag.String("out", "bench/out", "directory for the replay trace and the Chrome trace dumps")
	child := flag.String("child", "", "internal: run one rep|traced|traced-dump|experiment|legs and print it as JSON")
	flag.Parse()
	if *traceMode != 0 && *traceMode != 1 {
		fatalf("-trace must be 0 or 1")
	}
	opt := options{seed: *seed, seconds: *seconds, out: *out}

	all := bench.Workloads(false)
	ws := all
	if *workloadName != "" {
		w, ok := bench.Lookup(all, *workloadName)
		if !ok {
			fatalf("unknown workload %q", *workloadName)
		}
		ws = []*bench.Workload{w}
	}
	if *child != "" {
		if err := runChild(*child, ws[0], opt); err != nil {
			fatalf("%s %s: %v", *child, ws[0].Name, err)
		}
		return
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fatalf("%v", err)
	}
	for _, w := range ws {
		if w.TraceRecords > 0 {
			if err := bench.WriteTrace(tracePath(opt), w.TraceRecords, opt.seed); err != nil {
				fatalf("writing the replay trace: %v", err)
			}
		}
	}
	var rep report
	var err error
	if *traceMode == 0 {
		rep, err = endToEnd(ws, opt)
	} else {
		rep, err = perLayer(ws, opt)
	}
	if err != nil {
		fatalf("%v", err)
	}
	rep.print(os.Stderr)
	if *jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatalf("writing %s: %v", *jsonPath, err)
		}
	}
	line, err := json.Marshal(rep.result(len(ws) > 1))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fsperf: "+format+"\n", args...)
	os.Exit(1)
}

// tracePath is where the invocation writes the replay trace for its
// seed; its children read it from there.
func tracePath(opt options) string { return filepath.Join(opt.out, "replay.fsbt") }

// runChild runs one unit of work in this process and prints it.
func runChild(kind string, w *bench.Workload, opt options) error {
	var v any
	var err error
	switch kind {
	case "rep":
		v, err = bench.RunRep(w, opt.seed, tracePath(opt), nil)
	case "traced", "traced-dump":
		tr := bench.NewTracer()
		var r *bench.Rep
		r, err = bench.RunRep(w, opt.seed, tracePath(opt), tr)
		if err == nil && kind == "traced-dump" {
			err = tr.WriteChrome(filepath.Join(opt.out, w.Name+".trace.json"), w.Name)
		}
		v = r
	case "experiment":
		v, err = bench.RunExperiment(w, opt.seed, tracePath(opt))
	case "legs":
		v, err = runLegs(opt.seed)
	default:
		return fmt.Errorf("unknown child kind")
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}

// legResults is the legs child's output.
type legResults struct {
	Legs  []bench.LegResult
	Sizes map[string]float64
}

func runLegs(seed uint64) (*legResults, error) {
	legs, sizes, err := bench.RunLegs(seed, false, 10*time.Millisecond)
	if err != nil {
		return nil, err
	}
	return &legResults{legs, sizes}, nil
}

// spawn re-executes fsperf as a child of the given kind, decodes its
// output into v and returns the child's peak RSS in MiB.
func spawn(kind string, w *bench.Workload, opt options, v any) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-child", kind, "-workload", w.Name,
		"-seed", strconv.FormatUint(opt.seed, 10), "-out", opt.out)
	// One P: a rep runs one simulated process at a time, handing a baton
	// between goroutines, and with a second P every handoff can wake it
	// and move the baton across CPUs. On a shared 2-vCPU VM, invocations
	// interleaved with two-P ones ran 18% faster and steadier.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("%s rep of %s: %w", kind, w.Name, err)
	}
	if err := json.Unmarshal(out, v); err != nil {
		return 0, fmt.Errorf("%s rep of %s: decoding: %w", kind, w.Name, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return 0, fmt.Errorf("no rusage for the %s rep of %s", kind, w.Name)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func spawnRep(kind string, w *bench.Workload, opt options) (*bench.Rep, error) {
	r := &bench.Rep{}
	rss, err := spawn(kind, w, opt, r)
	r.MaxRSSMB = rss
	return r, err
}

// workloadRun collects one workload's reps.
type workloadRun struct {
	w                 *bench.Workload
	untraced, traced  []*bench.Rep
	measured, elapsed float64
}

// needsMore reports whether the workload wants another round: until it
// has minReps untraced reps (one traced pair in traced mode) and has
// measured budget seconds of Run, within maxReps and one and a half
// budgets of wall time — set-up and process start-up are the rest, and
// the cap keeps a slow host from stretching the invocation.
func (r *workloadRun) needsMore(budget float64, traced bool) bool {
	if traced && len(r.traced) == 0 || !traced && len(r.untraced) < minReps {
		return true
	}
	return r.measured < budget && r.elapsed < 1.5*budget && len(r.untraced) < maxReps
}

// rounds runs reps round-robin over the workloads, rotating the order
// every round, until none needs more; one calls the rep function.
func rounds(runs []*workloadRun, budget float64, traced bool, one func(*workloadRun) error) error {
	for round := 0; ; round++ {
		var todo []*workloadRun
		for _, r := range runs {
			if r.needsMore(budget, traced) {
				todo = append(todo, r)
			}
		}
		if len(todo) == 0 {
			return nil
		}
		k := round % len(todo)
		for _, r := range append(todo[k:], todo[:k]...) {
			start := time.Now()
			if err := one(r); err != nil {
				return err
			}
			r.elapsed += time.Since(start).Seconds()
		}
	}
}

// endToEnd measures untraced reps, then checks each workload's
// reference rep against core.Experiment.
func endToEnd(ws []*bench.Workload, opt options) (report, error) {
	runs := newRuns(ws)
	err := rounds(runs, opt.seconds, false, func(r *workloadRun) error {
		rep, err := spawnRep("rep", r.w, opt)
		if err != nil {
			return err
		}
		r.untraced = append(r.untraced, rep)
		r.measured += rep.RunS
		return nil
	})
	if err != nil {
		return report{}, err
	}
	rp := newReport(opt, 0)
	for _, r := range runs {
		exp := &bench.ExperimentResult{}
		if _, err := spawn("experiment", r.w, opt, exp); err != nil {
			return report{}, err
		}
		wr := rp.add(r, exp)
		for name, xs := range bench.EndToEndValues(r.untraced) {
			wr.Metrics[name] = summary(bench.EndToEnd, name, xs)
		}
	}
	return rp, nil
}

// perLayer runs the layer legs, then alternates untraced and traced
// reps of each workload; the first traced rep dumps its spans.
func perLayer(ws []*bench.Workload, opt options) (report, error) {
	legs := &legResults{}
	if _, err := spawn("legs", ws[0], opt, legs); err != nil {
		return report{}, err
	}
	runs := newRuns(ws)
	// Both kinds of rep count against the budget; traced reps run slower
	// by the tracing overhead.
	err := rounds(runs, opt.seconds, true, func(r *workloadRun) error {
		rep, err := spawnRep("rep", r.w, opt)
		if err != nil {
			return err
		}
		kind := "traced"
		if len(r.traced) == 0 {
			kind = "traced-dump"
		}
		tr, err := spawnRep(kind, r.w, opt)
		if err != nil {
			return err
		}
		r.untraced = append(r.untraced, rep)
		r.traced = append(r.traced, tr)
		r.measured += rep.RunS + tr.RunS
		return nil
	})
	if err != nil {
		return report{}, err
	}
	rp := newReport(opt, 1)
	for _, l := range legs.Legs {
		rp.Shared[l.Name] = summary(bench.PerLayer, l.Name, []float64{l.NSPerOp})
		rp.Shared[bench.AllocsName(l.Name)] = summary(bench.PerLayer, bench.AllocsName(l.Name), []float64{l.AllocsPerOp})
	}
	for name, v := range legs.Sizes {
		rp.Shared[name] = summary(bench.PerLayer, name, []float64{v})
	}
	for _, r := range runs {
		wr := rp.add(r, nil)
		for name, xs := range bench.PerLayerValues(r.untraced, r.traced) {
			wr.Metrics[name] = summary(bench.PerLayer, name, xs)
		}
	}
	return rp, nil
}

func newRuns(ws []*bench.Workload) []*workloadRun {
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w}
	}
	return runs
}

// metricValue is one metric's median over the reps, with quartiles.
type metricValue struct {
	Unit string
	bench.Summary
}

func summary(list []bench.Metric, name string, xs []float64) metricValue {
	for _, m := range list {
		if m.Name == name {
			return metricValue{Unit: m.Unit, Summary: bench.Summarize(xs)}
		}
	}
	panic("fsperf: unregistered metric " + name)
}

// report is an invocation's outcome.
type report struct {
	Seed       uint64
	Seconds    float64
	Trace      int
	GOMAXPROCS int // the children's
	NumCPU     int
	Correct    bool
	Attempted  int64
	Failed     int64
	Failures   []string
	Workloads  []*workloadReport
	// Shared holds metrics of no single workload (the layer legs).
	Shared map[string]metricValue
}

type workloadReport struct {
	Name     string
	Metrics  map[string]metricValue
	Untraced []*bench.Rep
	Traced   []*bench.Rep `json:",omitempty"`
}

func newReport(opt options, trace int) report {
	return report{Seed: opt.seed, Seconds: opt.seconds, Trace: trace,
		GOMAXPROCS: childProcs, NumCPU: runtime.NumCPU(), Correct: true, Shared: map[string]metricValue{}}
}

// add checks a workload's reps and folds them into the report.
func (rp *report) add(r *workloadRun, exp *bench.ExperimentResult) *workloadReport {
	reps := append(append([]*bench.Rep{}, r.untraced...), r.traced...)
	failures, bad := bench.Check(r.w, reps, exp)
	for i, rep := range reps {
		rp.Attempted += rep.Attempted
		if bad[i] {
			rp.Failed += rep.Attempted
		} else {
			rp.Failed += rep.Failed
		}
	}
	rp.Failures = append(rp.Failures, failures...)
	rp.Correct = rp.Correct && len(failures) == 0
	wr := &workloadReport{Name: r.w.Name, Metrics: map[string]metricValue{}, Untraced: r.untraced, Traced: r.traced}
	rp.Workloads = append(rp.Workloads, wr)
	return wr
}

// result is the last line of output. Per-workload metric names carry a
// "<workload>." prefix when several workloads ran.
func (rp *report) result(prefix bool) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, wr := range rp.Workloads {
		for name, m := range wr.Metrics {
			if prefix {
				name = wr.Name + "." + name
			}
			metrics[name] = value{m.Median, m.Unit}
		}
	}
	for name, m := range rp.Shared {
		metrics[name] = value{m.Median, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rp.Correct, rp.Attempted, rp.Failed, metrics}
}

// print writes a readable table: every metric with its median,
// quartiles and rep count, then any failed check.
func (rp *report) print(f *os.File) {
	line := func(scope, name string, m metricValue) {
		fmt.Fprintf(f, "%-13s %-34s %14.6g %-10s [%.6g, %.6g] n=%d\n",
			scope, name, m.Median, m.Unit, m.P25, m.P75, m.N)
	}
	for _, wr := range rp.Workloads {
		for _, name := range slices.Sorted(maps.Keys(wr.Metrics)) {
			line(wr.Name, name, wr.Metrics[name])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(rp.Shared)) {
		line("legs", name, rp.Shared[name])
	}
	for _, msg := range rp.Failures {
		fmt.Fprintf(f, "CHECK FAILED: %s\n", msg)
	}
}
