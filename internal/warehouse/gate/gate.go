// Package gate is the statistical regression gate over warehoused
// run-sets: it compares a candidate against a stored baseline and
// reports, per metric, whether the candidate improved, regressed, or
// is statistically indistinguishable — the paper's "A vs B needs a
// significance test, not a bar chart" applied to the repo's own
// performance history.
//
// # Statistics
//
// Each metric is judged by two tests on the pooled per-run samples:
// Welch's t (means, unequal variances) and Mann-Whitney U (ranks,
// distribution-free — the guard for the skewed, outlier-ridden
// samples disk benchmarks produce). A metric's p-value is the MAXIMUM
// of the two: both tests must agree before the gate claims a
// difference. Across the metric family the gate applies Holm's
// step-down correction, so the family-wise false-positive rate is
// held at alpha no matter how many metrics are compared. Finally a
// minimum-effect floor (default 0.5%) keeps a statistically real but
// practically irrelevant drift from failing a build — with a
// deterministic simulator and enough runs, arbitrarily small true
// differences become significant.
//
// # Reading a verdict
//
// Regressed: the difference is significant after Holm at the gate's
// alpha, exceeds the effect floor, and points the bad way for the
// metric's direction (lower throughput, higher latency). Improved is
// the same strength of evidence the good way. Indistinguishable is
// everything else — including "the samples were too small to tell",
// which MinRuns makes explicit. The report carries effect size and a
// confidence interval for every metric, so a human reads magnitudes,
// not just stars.
package gate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/warehouse"
)

// Verdict is the gate's per-metric outcome.
type Verdict int

// Per-metric outcomes.
const (
	// Indistinguishable: no significant difference at the configured
	// alpha (after Holm), or the samples cannot support a claim.
	Indistinguishable Verdict = iota
	// Improved: significant and in the metric's good direction.
	Improved
	// Regressed: significant and in the metric's bad direction.
	Regressed
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Improved:
		return "improved"
	case Regressed:
		return "regressed"
	default:
		return "indistinguishable"
	}
}

// Config tunes the gate.
type Config struct {
	// Alpha is the family-wise significance level (default 0.01).
	Alpha float64
	// MinEffect is the minimum relative difference (fraction of the
	// baseline mean) a verdict may be built on (default 0.005).
	MinEffect float64
	// MinRuns is the minimum per-side sample size (default 4): below
	// it, the rank test cannot reach conventional significance and
	// the gate reports Indistinguishable rather than pretending.
	MinRuns int
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 0.01
	}
	if c.MinEffect <= 0 {
		c.MinEffect = 0.005
	}
	if c.MinRuns <= 0 {
		c.MinRuns = 4
	}
	return c
}

// MetricReport is the gate's evidence for one metric.
type MetricReport struct {
	// Metric names the measure ("ops/sec", "lat p99 ns", ...).
	Metric string
	// HigherIsBetter orients the verdict.
	HigherIsBetter bool
	// Baseline and Candidate summarize the two samples.
	Baseline, Candidate stats.Summary
	// WelchP and MannP are the two tests' two-sided p-values; P is
	// their maximum (the agreement rule).
	WelchP, MannP, P float64
	// HolmAlpha is the Holm step-down threshold this metric's P was
	// compared against; P < HolmAlpha means significant.
	HolmAlpha float64
	// Effect is the relative change, (candidate - baseline) /
	// baseline mean. Negative means the candidate is lower.
	Effect float64
	// CILo and CIHi bound the relative change at the 1-alpha level
	// (Welch-Satterthwaite interval on the mean difference, scaled by
	// the baseline mean).
	CILo, CIHi float64
	// Verdict is the gated outcome.
	Verdict Verdict
}

// String renders one line of evidence.
func (m MetricReport) String() string {
	dir := "↑"
	if !m.HigherIsBetter {
		dir = "↓"
	}
	return fmt.Sprintf("%-14s %s %+.1f%% [%+.1f%%, %+.1f%%] p=%.2g (welch %.2g, mann %.2g, holm α=%.2g): %s",
		m.Metric, dir, 100*m.Effect, 100*m.CILo, 100*m.CIHi, m.P, m.WelchP, m.MannP, m.HolmAlpha, m.Verdict)
}

// Report is a full gate comparison.
type Report struct {
	// Alpha is the family-wise level the verdicts were gated at.
	Alpha float64
	// BaselineRuns and CandidateRuns count pooled per-run samples.
	BaselineRuns, CandidateRuns int
	// FingerprintMatch reports whether baseline and candidate share
	// exactly one config fingerprint. False does not abort the gate —
	// comparing across an intended config change is legitimate — but
	// a CI gate should treat it as a configuration error.
	FingerprintMatch bool
	// Metrics holds the per-metric evidence, in a fixed order.
	Metrics []MetricReport
}

// Regressions lists the metrics that regressed.
func (r Report) Regressions() []MetricReport {
	var out []MetricReport
	for _, m := range r.Metrics {
		if m.Verdict == Regressed {
			out = append(out, m)
		}
	}
	return out
}

// String renders the whole report.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "gate: %d baseline vs %d candidate runs, alpha %g",
		r.BaselineRuns, r.CandidateRuns, r.Alpha)
	if !r.FingerprintMatch {
		sb.WriteString(" [config fingerprints differ]")
	}
	sb.WriteByte('\n')
	for _, m := range r.Metrics {
		fmt.Fprintf(&sb, "  %s\n", m)
	}
	return sb.String()
}

// metricSamples extracts one metric's pooled per-run samples from a
// run-set.
type metricDef struct {
	name   string
	higher bool
	pull   func(warehouse.Set) []float64
}

// metricFamily is the fixed metric family the gate judges. Latency
// percentiles come from the per-run log2 histograms, so their values
// are bucket-quantized; the rank test's tie correction handles the
// resulting ties, and fully tied samples are simply indistinguishable.
var metricFamily = []metricDef{
	{"ops/sec", true, warehouse.Set.Throughputs},
	{"lat mean ns", false, warehouse.Set.LatencyMeans},
	{"lat p50 ns", false, func(s warehouse.Set) []float64 { return s.LatencyQuantiles(metrics.P50) }},
	{"lat p99 ns", false, func(s warehouse.Set) []float64 { return s.LatencyQuantiles(metrics.P99) }},
	{"hit ratio", true, warehouse.Set.HitRatios},
	{"completion", true, warehouse.Set.CompletionRatios},
}

// Compare gates a candidate run-set against a baseline run-set.
// Records should share one config fingerprint (pool same-config runs
// with warehouse.Set.ByFingerprint before calling); the report notes
// when they do not.
func Compare(baseline, candidate warehouse.Set, cfg Config) Report {
	cfg = cfg.withDefaults()
	rep := Report{
		Alpha:            cfg.Alpha,
		BaselineRuns:     baseline.Runs(),
		CandidateRuns:    candidate.Runs(),
		FingerprintMatch: sameSingleFingerprint(baseline, candidate),
	}
	for _, def := range metricFamily {
		base, cand := def.pull(baseline), def.pull(candidate)
		if len(base) == 0 && len(cand) == 0 {
			continue // metric absent on both sides (e.g. closed-loop completion)
		}
		m := MetricReport{
			Metric:         def.name,
			HigherIsBetter: def.higher,
			Baseline:       stats.Summarize(base),
			Candidate:      stats.Summarize(cand),
		}
		m.WelchP = stats.WelchTTest(cand, base).P
		m.MannP = stats.MannWhitneyU(cand, base)
		m.P = math.Max(m.WelchP, m.MannP)
		if m.Baseline.Mean != 0 {
			m.Effect = (m.Candidate.Mean - m.Baseline.Mean) / math.Abs(m.Baseline.Mean)
			m.CILo, m.CIHi = welchCI(cand, base, cfg.Alpha)
			m.CILo /= math.Abs(m.Baseline.Mean)
			m.CIHi /= math.Abs(m.Baseline.Mean)
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	holm(rep.Metrics, cfg)
	return rep
}

// holm applies Holm's step-down procedure across the family and
// assigns verdicts: walk p-values smallest first, testing the i-th
// against alpha/(m-i); the first failure retires the rest of the
// family (their differences are noise at this alpha).
func holm(ms []MetricReport, cfg Config) {
	order := make([]int, len(ms))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ms[order[a]].P < ms[order[b]].P })
	rejected := true // still rejecting hypotheses as we walk up
	for rank, idx := range order {
		m := &ms[idx]
		m.HolmAlpha = cfg.Alpha / float64(len(ms)-rank)
		significant := rejected && m.P < m.HolmAlpha
		if !significant {
			rejected = false
			m.Verdict = Indistinguishable
			continue
		}
		if n := min(m.Baseline.N, m.Candidate.N); n < cfg.MinRuns {
			m.Verdict = Indistinguishable
			continue
		}
		if math.Abs(m.Effect) < cfg.MinEffect {
			m.Verdict = Indistinguishable
			continue
		}
		if (m.Effect > 0) == m.HigherIsBetter {
			m.Verdict = Improved
		} else {
			m.Verdict = Regressed
		}
	}
}

// welchCI returns the (1-alpha) Welch-Satterthwaite confidence
// interval for mean(a) - mean(b), in the metric's own units.
func welchCI(a, b []float64, alpha float64) (lo, hi float64) {
	na, nb := float64(len(a)), float64(len(b))
	diff := stats.Mean(a) - stats.Mean(b)
	if na < 2 || nb < 2 {
		return diff, diff
	}
	sa, sb := stats.Variance(a)/na, stats.Variance(b)/nb
	se := math.Sqrt(sa + sb)
	if se == 0 {
		return diff, diff
	}
	df := (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	half := stats.TQuantile(1-alpha/2, df) * se
	return diff - half, diff + half
}

// sameSingleFingerprint reports whether both sets are non-empty and
// share exactly one common fingerprint.
func sameSingleFingerprint(a, b warehouse.Set) bool {
	fa, fb := a.Fingerprints(), b.Fingerprints()
	return len(fa) == 1 && len(fb) == 1 && fa[0] == fb[0]
}
