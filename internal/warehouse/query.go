package warehouse

import (
	"sort"

	"repro/internal/metrics"
)

// Set is an in-memory run-set: the query layer over loaded records.
// Methods never mutate the receiver; chains like
// set.Filter(f).ByFingerprint() operate on views.
type Set []Record

// Filter selects records by dimension. Zero-valued fields match
// everything, so the zero Filter is the identity.
type Filter struct {
	Name        string
	Personality string
	FS          string
	Device      string
	Scheduler   string
	Arrival     string
	Fingerprint string
	GitRev      string
	TraceDigest string
	ReplayMode  string
}

// match reports whether the record passes every set field.
func (f Filter) match(r Record) bool {
	ok := func(want, got string) bool { return want == "" || want == got }
	return ok(f.Name, r.Name) &&
		ok(f.Personality, r.Personality) &&
		ok(f.FS, r.FS) &&
		ok(f.Device, r.Device) &&
		ok(f.Scheduler, r.Scheduler) &&
		ok(f.Arrival, r.Arrival) &&
		ok(f.Fingerprint, r.Fingerprint) &&
		ok(f.GitRev, r.GitRev) &&
		ok(f.TraceDigest, r.TraceDigest) &&
		ok(f.ReplayMode, r.ReplayMode)
}

// Filter returns the records matching every set field.
func (s Set) Filter(f Filter) Set {
	var out Set
	for _, r := range s {
		if f.match(r) {
			out = append(out, r)
		}
	}
	return out
}

// GroupBy partitions the set by an arbitrary key.
func (s Set) GroupBy(key func(Record) string) map[string]Set {
	out := map[string]Set{}
	for _, r := range s {
		out[key(r)] = append(out[key(r)], r)
	}
	return out
}

// ByFingerprint groups by config fingerprint — the pooling unit: all
// records in one group measured the same configuration.
func (s Set) ByFingerprint() map[string]Set {
	return s.GroupBy(func(r Record) string { return r.Fingerprint })
}

// Runs reports the total number of archived runs (not records).
func (s Set) Runs() int {
	n := 0
	for _, r := range s {
		n += len(r.PerRun)
	}
	return n
}

// Throughputs pools the per-run throughput samples across the set —
// the sample a significance test consumes.
func (s Set) Throughputs() []float64 {
	var out []float64
	for _, r := range s {
		for _, m := range r.PerRun {
			out = append(out, m.Throughput)
		}
	}
	return out
}

// HitRatios pools the per-run cache hit ratios.
func (s Set) HitRatios() []float64 {
	var out []float64
	for _, r := range s {
		for _, m := range r.PerRun {
			out = append(out, m.HitRatio)
		}
	}
	return out
}

// LatencyMeans pools the per-run mean latencies in nanoseconds,
// skipping runs that recorded no operations.
func (s Set) LatencyMeans() []float64 {
	var out []float64
	for _, r := range s {
		for _, m := range r.PerRun {
			if m.Hist != nil && m.Hist.Count() > 0 {
				out = append(out, m.Hist.Mean())
			}
		}
	}
	return out
}

// LatencyQuantiles pools the per-run q-quantile latencies in
// nanoseconds (see Histogram.Quantile), skipping empty runs. Values
// are bucket upper edges — quantized, which the gate's rank-based
// test tolerates and its tie handling acknowledges.
func (s Set) LatencyQuantiles(q metrics.Quantile) []float64 {
	var out []float64
	for _, r := range s {
		for _, m := range r.PerRun {
			if m.Hist != nil && m.Hist.Count() > 0 {
				out = append(out, float64(m.Hist.Quantile(q)))
			}
		}
	}
	return out
}

// CompletionRatios pools the per-run offered-load completion ratios
// of open-loop runs (runs that saw no arrivals are skipped: a closed
// loop's ratio is 1 by construction and would dilute the sample).
func (s Set) CompletionRatios() []float64 {
	var out []float64
	for _, r := range s {
		for _, m := range r.PerRun {
			if m.Load.Offered > 0 {
				out = append(out, m.Load.CompletionRatio())
			}
		}
	}
	return out
}

// MergedHist merges every run's full histogram — the set's pooled
// latency distribution.
func (s Set) MergedHist() *metrics.Histogram {
	h := &metrics.Histogram{}
	for _, r := range s {
		for _, m := range r.PerRun {
			if m.Hist != nil {
				h.Merge(m.Hist)
			}
		}
	}
	return h
}

// Fingerprints reports the distinct config fingerprints, sorted.
func (s Set) Fingerprints() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range s {
		if !seen[r.Fingerprint] {
			seen[r.Fingerprint] = true
			out = append(out, r.Fingerprint)
		}
	}
	sort.Strings(out)
	return out
}
