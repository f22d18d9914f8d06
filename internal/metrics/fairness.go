package metrics

import "repro/internal/sim"

// This file provides per-requester (per-thread) accounting and the
// Jain fairness index — the measurements behind the paper's complaint
// that aggregate numbers hide who actually got serviced and at what
// tail cost. Scheduler-induced starvation (NCQ's seek greed bypassing
// an unlucky thread) is invisible in a merged histogram; it is
// unmissable in per-owner op counts.

// PerOwner accumulates per-requester operation counts and latency
// histograms, indexed by a small non-negative owner id. The workload
// engine records with thread indices 0..N-1, assigned in thread-spec
// declaration order, so slot i is the i-th thread instance on every
// run.
type PerOwner struct {
	hists []*Histogram
}

// Record adds one latency observation for owner; negative ids are
// ignored.
func (p *PerOwner) Record(owner int, d sim.Time) {
	if owner < 0 {
		return
	}
	p.grow(owner + 1)
	p.hists[owner].Record(d)
}

func (p *PerOwner) grow(n int) {
	for len(p.hists) < n {
		p.hists = append(p.hists, &Histogram{})
	}
}

// Owners reports the number of owner slots (highest recorded id + 1).
func (p *PerOwner) Owners() int { return len(p.hists) }

// Hist returns owner's latency histogram, or nil for an unrecorded
// owner.
func (p *PerOwner) Hist(owner int) *Histogram {
	if owner < 0 || owner >= len(p.hists) {
		return nil
	}
	return p.hists[owner]
}

// Ops returns per-owner observation counts indexed by owner id. A
// fully starved owner shows as an explicit zero — exactly the value a
// fairness index must not hide — provided some higher-numbered owner
// recorded (see OpsPadded for a guaranteed width).
func (p *PerOwner) Ops() []int64 {
	out := make([]int64, len(p.hists))
	for i, h := range p.hists {
		out[i] = h.Count()
	}
	return out
}

// OpsPadded returns per-owner counts over at least n slots, padding
// with zeros, so owners that never completed a single operation still
// enter a fairness computation.
func (p *PerOwner) OpsPadded(n int) []int64 {
	out := p.Ops()
	for len(out) < n {
		out = append(out, 0)
	}
	return out
}

// Jain reports the Jain fairness index of the per-owner op counts.
func (p *PerOwner) Jain() float64 { return JainIndexCounts(p.Ops()) }

// OwnerSpread summarizes a service split: the op-count extremes over
// a fixed set of owners and the p99 latency extremes among owners
// that recorded at least one operation.
type OwnerSpread struct {
	MinOps, MaxOps    int64
	WorstP99, BestP99 int64 // nanoseconds; zero when no owner recorded
}

// Spread reports the service split over the first n owner slots
// (absent owners count as zero ops — a fully starved owner is exactly
// what a spread must show). Reporting surfaces (figures, CLIs) share
// this instead of re-deriving it.
func (p *PerOwner) Spread(n int) OwnerSpread {
	ops := p.OpsPadded(n)[:n]
	if n == 0 {
		return OwnerSpread{}
	}
	s := OwnerSpread{MinOps: ops[0], MaxOps: ops[0], BestP99: -1}
	for o, c := range ops {
		if c < s.MinOps {
			s.MinOps = c
		}
		if c > s.MaxOps {
			s.MaxOps = c
		}
		h := p.Hist(o)
		if h == nil || h.Count() == 0 {
			continue
		}
		p99 := h.Quantile(P99)
		if p99 > s.WorstP99 {
			s.WorstP99 = p99
		}
		if s.BestP99 < 0 || p99 < s.BestP99 {
			s.BestP99 = p99
		}
	}
	if s.BestP99 < 0 {
		s.BestP99 = 0
	}
	return s
}

// Merge adds other's observations into p, owner by owner.
func (p *PerOwner) Merge(other *PerOwner) {
	if other == nil {
		return
	}
	p.grow(len(other.hists))
	for i, h := range other.hists {
		p.hists[i].Merge(h)
	}
}

// JainIndex is Jain, Chiu & Hawe's fairness index of an allocation:
// (Σx)² / (n·Σx²). It is 1.0 when every owner received an equal
// share and approaches 1/n as one owner takes everything; it is
// scale-free, so op counts can be compared across schedulers with
// different total throughput. An empty or all-zero sample returns 0
// (no allocation to judge).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// JainIndexCounts is JainIndex over integer counts.
func JainIndexCounts(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return JainIndex(fs)
}
