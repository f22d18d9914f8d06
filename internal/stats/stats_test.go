package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	// Sample variance with n-1: sum sq dev = 32, /7.
	if v := Variance(xs); !almostEq(v, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty-sample stats not zero")
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("singleton variance != 0")
	}
	s := Summarize([]float64{5})
	if s.CI95Lo != 5 || s.CI95Hi != 5 {
		t.Fatal("singleton CI not degenerate")
	}
}

func TestRelStdDev(t *testing.T) {
	xs := []float64{90, 100, 110}
	if rsd := RelStdDev(xs); !almostEq(rsd, 0.1, 1e-3) {
		t.Fatalf("RSD = %v, want ~0.1", rsd)
	}
	if RelStdDev([]float64{0, 0}) != 0 {
		t.Fatal("zero-mean RSD not 0")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if p := quantile(xs, 0.5); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := quantile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := quantile(xs, 1); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := quantile(xs, 0.25); p != 2 {
		t.Fatalf("p25 = %v, want 2", p)
	}
	// Unsorted input must not matter.
	if p := quantile([]float64{5, 1, 3, 2, 4}, 0.5); p != 3 {
		t.Fatalf("unsorted p50 = %v", p)
	}
}

func TestPercentileProperty(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		v := quantile(raw, float64(qRaw)/255)
		return v >= Min(raw) && v <= Max(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeCIBracketsMean(t *testing.T) {
	rng := sim.NewRNG(1)
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = rng.Normal(100, 10)
	}
	s := Summarize(xs)
	if s.CI95Lo >= s.Mean || s.CI95Hi <= s.Mean {
		t.Fatalf("CI [%v, %v] does not bracket mean %v", s.CI95Lo, s.CI95Hi, s.Mean)
	}
	width := s.CI95Hi - s.CI95Lo
	// Rough expectation: 2 * t(.975,29) * 10/sqrt(30) ≈ 7.5.
	if width < 4 || width > 12 {
		t.Fatalf("CI width = %v, want ~7.5", width)
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	// Classic table values.
	cases := []struct {
		p, df, want float64
	}{
		{0.975, 9, 2.262},
		{0.975, 29, 2.045},
		{0.95, 9, 1.833},
		{0.975, 1000, 1.962},
	}
	for _, c := range cases {
		if got := TQuantile(c.p, c.df); !almostEq(got, c.want, 0.01) {
			t.Errorf("TQuantile(%v, %v) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
	if got := TQuantile(0.025, 9); !almostEq(got, -2.262, 0.01) {
		t.Errorf("lower-tail quantile = %v", got)
	}
	if TQuantile(0.5, 5) != 0 {
		t.Error("median of t not 0")
	}
}

func TestTCDFSymmetry(t *testing.T) {
	f := func(tRaw int8, dfRaw uint8) bool {
		tv := float64(tRaw) / 16
		df := float64(dfRaw%50) + 1
		return almostEq(TCDF(tv, df)+TCDF(-tv, df), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelchDetectsDifference(t *testing.T) {
	rng := sim.NewRNG(2)
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		a[i] = rng.Normal(100, 5)
		b[i] = rng.Normal(130, 5)
	}
	r := WelchTTest(a, b)
	if r.P > 1e-6 {
		t.Fatalf("clearly different samples: p = %v", r.P)
	}
	if r.T > 0 {
		t.Fatalf("T = %v, want negative (a < b)", r.T)
	}
}

func TestWelchNoDifference(t *testing.T) {
	rng := sim.NewRNG(3)
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		a[i] = rng.Normal(100, 5)
		b[i] = rng.Normal(100, 5)
	}
	if r := WelchTTest(a, b); r.P < 0.01 {
		t.Fatalf("same-distribution samples flagged: p = %v", r.P)
	}
	// Degenerate inputs.
	if r := WelchTTest([]float64{1}, []float64{2}); r.P != 1 {
		t.Fatal("tiny samples should be inconclusive (p=1)")
	}
	if r := WelchTTest([]float64{5, 5}, []float64{5, 5}); r.P != 1 {
		t.Fatalf("identical constant samples: p = %v, want 1", r.P)
	}
}

func TestMannWhitney(t *testing.T) {
	rng := sim.NewRNG(4)
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		// Heavy-tailed samples where t-tests are shaky.
		a[i] = rng.Pareto(1, 2)
		b[i] = rng.Pareto(3, 2)
	}
	if p := MannWhitneyU(a, b); p > 0.001 {
		t.Fatalf("shifted Pareto samples: p = %v", p)
	}
	c := make([]float64, 30)
	d := make([]float64, 30)
	for i := range c {
		c[i] = rng.Pareto(1, 2)
		d[i] = rng.Pareto(1, 2)
	}
	if p := MannWhitneyU(c, d); p < 0.01 {
		t.Fatalf("identical Pareto samples flagged: p = %v", p)
	}
	if MannWhitneyU(nil, a) != 1 {
		t.Fatal("empty sample should be inconclusive")
	}
}

func TestMannWhitneyTies(t *testing.T) {
	a := []float64{1, 1, 1, 2, 2}
	b := []float64{1, 2, 2, 2, 3}
	p := MannWhitneyU(a, b)
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Fatalf("tie handling broke p-value: %v", p)
	}
}

func TestLinearRegression(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	slope, intercept, r2 := LinearRegression(x, y)
	if !almostEq(slope, 2, 1e-12) || !almostEq(intercept, 1, 1e-12) || !almostEq(r2, 1, 1e-12) {
		t.Fatalf("fit = (%v, %v, %v)", slope, intercept, r2)
	}
	// Flat y: slope 0, r2 defined as 1 (perfect fit of a constant).
	slope, _, _ = LinearRegression(x, []float64{5, 5, 5, 5, 5})
	if slope != 0 {
		t.Fatalf("flat slope = %v", slope)
	}
}

func TestMSER5TruncatesWarmup(t *testing.T) {
	// 50 samples of warm-up ramp followed by 200 stationary samples.
	rng := sim.NewRNG(7)
	series := make([]float64, 250)
	for i := 0; i < 50; i++ {
		series[i] = float64(i) * 2 // ramp 0..98
	}
	for i := 50; i < 250; i++ {
		series[i] = rng.Normal(100, 3)
	}
	trunc := MSER5(series)
	if trunc < 30 || trunc > 80 {
		t.Fatalf("MSER5 truncation = %d, want near 50", trunc)
	}
	// Already-stationary series: little or no truncation.
	flat := make([]float64, 200)
	for i := range flat {
		flat[i] = rng.Normal(100, 3)
	}
	if trunc := MSER5(flat); trunc > 50 {
		t.Fatalf("stationary series truncated at %d", trunc)
	}
	if MSER5([]float64{1, 2}) != 0 {
		t.Fatal("tiny series should not truncate")
	}
}

func TestChangePointFindsShift(t *testing.T) {
	rng := sim.NewRNG(8)
	series := make([]float64, 200)
	for i := range series {
		level := 100.0
		if i >= 120 {
			level = 160
		}
		series[i] = rng.Normal(level, 5)
	}
	idx, p := ChangePoint(series, 5)
	if idx < 110 || idx > 130 {
		t.Fatalf("change point at %d, want ~120", idx)
	}
	if p > 1e-9 {
		t.Fatalf("change point p = %v, want tiny", p)
	}
}

func TestStationaryTail(t *testing.T) {
	rng := sim.NewRNG(10)
	// Warm-up then steady: ok.
	series := make([]float64, 300)
	for i := range series {
		if i < 60 {
			series[i] = float64(i)
		} else {
			series[i] = rng.Normal(100, 2)
		}
	}
	if _, ok := StationaryTail(series); !ok {
		t.Error("steady tail not recognized")
	}
	// Continuous ramp (Figure 2's transition): not stationary.
	ramp := make([]float64, 300)
	for i := range ramp {
		ramp[i] = float64(i) * 3
	}
	if _, ok := StationaryTail(ramp); ok {
		t.Error("pure ramp declared stationary")
	}
}

func TestTransitionRegion(t *testing.T) {
	// Synthetic Figure 1: flat fast region, cliff, slow decay; RSD
	// spikes at the cliff.
	var sums []Summary
	add := func(mean, rsd float64) {
		sums = append(sums, Summary{Mean: mean, RSD: rsd})
	}
	for i := 0; i < 6; i++ {
		add(9700, 0.01)
	}
	add(1000, 0.35) // the cliff
	for i := 0; i < 8; i++ {
		add(250, 0.05)
	}
	lo, hi, ratio, found := TransitionRegion(sums, 0.15)
	if !found {
		t.Fatal("transition not found")
	}
	if lo != 6 || hi != 6 {
		t.Fatalf("transition at [%d,%d], want [6,6]", lo, hi)
	}
	if ratio < 9 {
		t.Fatalf("max adjacent ratio = %v, want ~9.7", ratio)
	}
	_, _, _, found = TransitionRegion(sums[:5], 0.15)
	if found {
		t.Fatal("flat region flagged as transition")
	}
}

func BenchmarkSummarize(b *testing.B) {
	rng := sim.NewRNG(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(xs)
	}
}

func BenchmarkWelch(b *testing.B) {
	rng := sim.NewRNG(1)
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 0.3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WelchTTest(xs, ys)
	}
}
