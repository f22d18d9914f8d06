package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Metric names one reported metric.
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// EndToEnd are the metrics a user of the simulator sees, reported from
// untraced reps. Each value is the median over the invocation's reps.
var EndToEnd = []Metric{
	{"sim_ops_per_s", "ops/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"allocs_per_op", "objects/op", "lower"},
}

// PerLayer are the metrics of single layers, reported by a traced
// invocation: from the traced reps, from exact simulated counters, and
// from the layer legs.
var PerLayer = []Metric{
	// Traced reps: host time per wrapped layer.
	{"workload.run_self_share", "ratio", "lower"},
	{"cache.policy_ns_per_call", "ns/call", "lower"},
	{"cache.policy_calls_per_op", "calls/op", "lower"},
	{"cache.policy_share", "ratio", "lower"},
	{"fs.ns_per_call", "ns/call", "lower"},
	{"fs.calls_per_op", "calls/op", "lower"},
	{"fs.share", "ratio", "lower"},
	{"device.ns_per_submit", "ns/call", "lower"},
	{"device.submits_per_op", "calls/op", "lower"},
	{"device.share", "ratio", "lower"},
	{"trace.decode_ns_per_rec", "ns/call", "lower"},
	{"trace.decode_share", "ratio", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.span_cost_ns", "ns/span", "lower"},
	// Simulated counters: identical across commits that only change
	// host cost; the denominators for host time per simulated event.
	{"vfs.writeback_pages_per_op", "pages/op", "lower"},
	{"vfs.throttle_stalls_per_kop", "stalls/kop", "lower"},
	{"vfs.dentry_hit_ratio", "ratio", "higher"},
	{"cache.evictions_per_op", "pages/op", "lower"},
	{"cache.inserts_per_op", "pages/op", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.invalidations_per_op", "pages/op", "lower"},
	{"device.busy_frac", "ratio", "lower"},
	{"device.queue_wait_ms", "sim_ms", "lower"},
	{"device.queue_max", "requests", "lower"},
	// Layer legs: one public function on a fixed input.
	{"sim.proc_bytes", "B/proc", "lower"},
	{"trace.bytes_per_rec", "B/rec", "lower"},
}

func init() {
	for _, l := range legs {
		PerLayer = append(PerLayer,
			Metric{l.name, "ns/op", "lower"},
			Metric{AllocsName(l.name), "allocs/op", "lower"})
	}
}

// AllocsName names a leg's allocs/op metric after its ns/op one:
// vfs.read_hit_ns -> vfs.read_hit_allocs.
func AllocsName(ns string) string {
	i := strings.LastIndex(ns, "_ns")
	return ns[:i] + "_allocs" + ns[i+3:]
}

// Summary is a metric's distribution over an invocation's reps.
type Summary struct {
	Median, P25, P75 float64
	N                int
}

// Summarize computes the median and quartiles of xs, interpolating
// like Python's statistics.quantiles (exclusive method).
func Summarize(xs []float64) Summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return Summary{}
	}
	q := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		lo := math.Floor(pos)
		if lo < 0 {
			return s[0]
		}
		if int(lo) >= n-1 {
			return s[n-1]
		}
		f := pos - lo
		return s[int(lo)]*(1-f) + s[int(lo)+1]*f
	}
	return Summary{Median: q(0.5), P25: q(0.25), P75: q(0.75), N: n}
}

func median(xs []float64) float64 { return Summarize(xs).Median }

// perOp divides a count by a rep's finished ops (0 for an empty rep).
func perOp(x float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return x / float64(ops)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// EndToEndValues returns, per end-to-end metric, the rep values the
// invocation's median is taken over.
func EndToEndValues(reps []*Rep) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range reps {
		ops := r.Finished()
		out["sim_ops_per_s"] = append(out["sim_ops_per_s"], ratio(float64(ops), r.RunS))
		out["setup_s"] = append(out["setup_s"], r.SetupS)
		out["peak_rss_mb"] = append(out["peak_rss_mb"], r.MaxRSSMB)
		out["alloc_bytes_per_op"] = append(out["alloc_bytes_per_op"], perOp(float64(r.AllocBytes), ops))
		out["allocs_per_op"] = append(out["allocs_per_op"], perOp(float64(r.AllocObjects), ops))
	}
	return out
}

// PerLayerValues returns, per workload-specific per-layer metric, the
// values its median is taken over: traced reps for host time, untraced
// reps for the runtime's GC and the tracing overhead, and the first
// rep's simulated counters (identical in every rep that passes the
// checks).
func PerLayerValues(untraced, traced []*Rep) map[string][]float64 {
	out := map[string][]float64{}
	add := func(name string, v float64) { out[name] = append(out[name], v) }
	for _, r := range traced {
		t, ops := r.Trace, r.Finished()
		add("workload.run_self_share", ratio(t.SelfNS, t.RunNS))
		for _, l := range []struct{ layer, perCall, perOp, share string }{
			{"cache.policy", "cache.policy_ns_per_call", "cache.policy_calls_per_op", "cache.policy_share"},
			{"fs", "fs.ns_per_call", "fs.calls_per_op", "fs.share"},
			{"device", "device.ns_per_submit", "device.submits_per_op", "device.share"},
		} {
			lt := t.Layer(l.layer)
			add(l.perCall, ratio(lt.NS, float64(lt.Calls)))
			add(l.perOp, perOp(float64(lt.Calls), ops))
			add(l.share, ratio(lt.NS, t.RunNS))
		}
		lt := t.Layer("trace")
		add("trace.decode_ns_per_rec", ratio(lt.NS, float64(lt.Calls)))
		add("trace.decode_share", ratio(lt.NS, t.RunNS))
		add("bench.span_cost_ns", t.SpanCostNS)
	}
	for _, r := range untraced {
		add("runtime.gc_cpu_share", r.GCCPUShare)
		add("runtime.gc_cycles", float64(r.GCCycles))
	}
	untracedRate := median(EndToEndValues(untraced)["sim_ops_per_s"])
	tracedRate := median(EndToEndValues(traced)["sim_ops_per_s"])
	add("bench.trace_overhead", 1-ratio(tracedRate, untracedRate))
	if len(untraced) > 0 {
		s, ops := untraced[0].Stats, untraced[0].Finished()
		add("vfs.writeback_pages_per_op", perOp(float64(s.VFS.WritebackPages), ops))
		add("vfs.throttle_stalls_per_kop", perOp(1000*float64(s.VFS.ThrottleStalls), ops))
		add("vfs.dentry_hit_ratio", ratio(float64(s.VFS.DentryHits), float64(s.VFS.DentryHits+s.VFS.DentryMisses)))
		add("cache.evictions_per_op", perOp(float64(s.Cache.Evictions), ops))
		add("cache.inserts_per_op", perOp(float64(s.Cache.Inserts), ops))
		add("cache.hit_ratio", s.Cache.HitRatio())
		add("cache.invalidations_per_op", perOp(float64(s.Cache.Invalidations), ops))
		add("device.busy_frac", ratio(float64(s.Device.BusyTime), float64(s.Virtual)))
		add("device.queue_wait_ms", float64(s.Queue.MeanWait())/1e6)
		add("device.queue_max", float64(s.Queue.MaxQueued))
	}
	return out
}

// Check verifies one workload's reps. The first rep is the reference:
// every other rep, traced or not, must reproduce its digest; it must
// match core.Experiment's own run (exp, when given); and it must meet
// the workload's invariants. It returns the failures and which reps
// they condemn: a failure of the reference condemns every rep.
func Check(w *Workload, reps []*Rep, exp *ExperimentResult) (failures []string, bad []bool) {
	bad = make([]bool, len(reps))
	if len(reps) == 0 {
		return []string{w.Name + ": no reps"}, bad
	}
	fail := func(rep int, format string, args ...any) {
		failures = append(failures, fmt.Sprintf("%s: ", w.Name)+fmt.Sprintf(format, args...))
		if rep >= 0 {
			bad[rep] = true
			return
		}
		for i := range bad {
			bad[i] = true
		}
	}
	ref := reps[0]
	if d := ref.Stats.Digest(); d != ref.Digest {
		fail(-1, "rep 0 digest %s does not hash its own stats (%s)", ref.Digest, d)
	}
	for i, r := range reps[1:] {
		if r.Digest != ref.Digest {
			fail(i+1, "rep %d (traced=%v) digest %s != rep 0 digest %s", i+1, r.Traced, r.Digest, ref.Digest)
		}
	}
	if exp != nil {
		got, _ := json.Marshal(ref.Stats.Hist)
		want, _ := json.Marshal(exp.Hist)
		if !bytes.Equal(got, want) {
			fail(-1, "histogram differs from core.Experiment's")
		}
		if ref.Stats.Counter.Errors != exp.Errors {
			fail(-1, "errors %d != core.Experiment's %d", ref.Stats.Counter.Errors, exp.Errors)
		}
		if ref.Stats.Cache.HitRatio() != exp.HitRatio {
			fail(-1, "hit ratio %v != core.Experiment's %v", ref.Stats.Cache.HitRatio(), exp.HitRatio)
		}
	}
	if ref.Attempted == 0 {
		fail(-1, "no ops attempted")
	}
	if ref.Stats.Resident > ref.Stats.Capacity {
		fail(-1, "%d resident pages exceed capacity %d", ref.Stats.Resident, ref.Stats.Capacity)
	}
	if err := w.check(&ref.Stats); err != nil {
		fail(-1, "%v", err)
	}
	return failures, bad
}
