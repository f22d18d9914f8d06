package stats

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests for the two-sample machinery the regression gate
// leans on: the gate's verdicts are only as trustworthy as the
// symmetry and monotonicity of the underlying tests.

// sample draws n values from N(mean, sd) with a fixed-seed generator.
func sample(rng *rand.Rand, n int, mean, sd float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mean + sd*rng.NormFloat64()
	}
	return xs
}

func TestWelchSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		na, nb := 2+rng.Intn(10), 2+rng.Intn(10)
		a := sample(rng, na, 10+5*rng.Float64(), 0.5+rng.Float64())
		b := sample(rng, nb, 10+5*rng.Float64(), 0.5+rng.Float64())
		ab, ba := WelchTTest(a, b), WelchTTest(b, a)
		if !almostEq(ab.P, ba.P, 1e-12) {
			t.Fatalf("trial %d: Welch p not symmetric: %v vs %v", trial, ab.P, ba.P)
		}
		if !almostEq(ab.T, -ba.T, 1e-9) {
			t.Fatalf("trial %d: Welch t not antisymmetric: %v vs %v", trial, ab.T, ba.T)
		}
		if ab.P < 0 || ab.P > 1 {
			t.Fatalf("trial %d: Welch p outside [0,1]: %v", trial, ab.P)
		}
		pab, pba := MannWhitneyU(a, b), MannWhitneyU(b, a)
		if !almostEq(pab, pba, 1e-12) {
			t.Fatalf("trial %d: MWU p not symmetric: %v vs %v", trial, pab, pba)
		}
		if pab < 0 || pab > 1 {
			t.Fatalf("trial %d: MWU p outside [0,1]: %v", trial, pab)
		}
	}
}

// TestShiftMonotonicity checks that a bigger effect size never looks
// less significant: comparing a sample against a copy of itself
// shifted by a growing constant must not increase either test's
// p-value. (The shift is applied to a copy of the same sample — two
// independent samples can first move closer before separating, so
// monotonicity only holds in the paired form.)
func TestShiftMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		a := sample(rng, 8, 100, 1)
		shifts := []float64{0, 0.5, 1, 2, 4, 8}
		prevW, prevM := math.Inf(1), math.Inf(1)
		for _, d := range shifts {
			shifted := make([]float64, len(a))
			for i, v := range a {
				shifted[i] = v + d
			}
			w := WelchTTest(a, shifted).P
			m := MannWhitneyU(a, shifted)
			// Welch's p is a smooth function of the shift; the rank
			// test moves in steps, so allow exact ties plus float slack.
			if w > prevW+1e-9 {
				t.Fatalf("trial %d shift %v: Welch p rose %v -> %v", trial, d, prevW, w)
			}
			if m > prevM+1e-9 {
				t.Fatalf("trial %d shift %v: MWU p rose %v -> %v", trial, d, prevM, m)
			}
			prevW, prevM = w, m
		}
		// An 8-sigma shift at n=8 must be decisive at any sane alpha.
		if prevW > 1e-4 || prevM > 0.01 {
			t.Fatalf("trial %d: 8-sigma shift not significant: welch=%v mwu=%v", trial, prevW, prevM)
		}
	}
}

func TestWelchDegenerateSamples(t *testing.T) {
	if p := WelchTTest([]float64{1}, []float64{2, 3}).P; p != 1 {
		t.Fatalf("n=1 sample: p = %v, want 1 (no evidence)", p)
	}
	if p := WelchTTest([]float64{5, 5, 5}, []float64{5, 5, 5}).P; p != 1 {
		t.Fatalf("identical zero-variance samples: p = %v, want 1", p)
	}
	r := WelchTTest([]float64{5, 5, 5}, []float64{6, 6, 6})
	if r.P != 0 || !math.IsInf(r.T, -1) {
		t.Fatalf("distinct zero-variance samples: p=%v t=%v, want p=0, t=-Inf", r.P, r.T)
	}
	if p := MannWhitneyU(nil, []float64{1, 2}); p != 1 {
		t.Fatalf("empty sample: MWU p = %v, want 1", p)
	}
	if p := MannWhitneyU([]float64{4, 4}, []float64{4, 4}); p != 1 {
		t.Fatalf("all-tied samples: MWU p = %v, want 1", p)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	// A singleton answers every quantile with its only value.
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := quantile([]float64{42}, q); got != 42 {
			t.Fatalf("quantile([42], %v) = %v, want 42", q, got)
		}
	}
	// An all-equal sample has a degenerate distribution.
	eq := []float64{7, 7, 7, 7}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := quantile(eq, q); got != 7 {
			t.Fatalf("quantile(all-7s, %v) = %v, want 7", q, got)
		}
	}
	// Out-of-range ranks read as the extremes.
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := quantile(xs, -0.05); got != 1 {
		t.Fatalf("quantile(xs, -0.05) = %v, want min 1", got)
	}
	if got := quantile(xs, 2.5); got != 9 {
		t.Fatalf("quantile(xs, 2.5) = %v, want max 9", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Fatal("empty-sample quantile not 0")
	}
}

// TestPercentileMonotoneInP checks order preservation: a higher rank
// never returns a smaller value, and every answer stays inside
// [min, max].
func TestPercentileMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		xs := sample(rng, 1+rng.Intn(20), 50, 10)
		prev := math.Inf(-1)
		for i := 0; i <= 40; i++ {
			q := float64(i) / 40
			got := quantile(xs, q)
			if got < prev {
				t.Fatalf("trial %d: quantile(%v) = %v < previous %v", trial, q, got, prev)
			}
			if got < Min(xs) || got > Max(xs) {
				t.Fatalf("trial %d: quantile(%v) = %v outside [%v, %v]",
					trial, q, got, Min(xs), Max(xs))
			}
			prev = got
		}
	}
}
