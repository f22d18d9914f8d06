package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDurationConversion(t *testing.T) {
	if got := Duration(1500 * time.Millisecond); got != 1500*Millisecond {
		t.Fatalf("Duration conversion = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seeded RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("differently seeded RNGs agreed on %d/100 draws", same)
	}
}

func TestRNGZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded RNG produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	child := r.Split()
	// The child's stream must not be the parent's continued stream.
	parentNext := make([]uint64, 10)
	for i := range parentNext {
		parentNext[i] = r.Uint64()
	}
	collisions := 0
	for i := 0; i < 10; i++ {
		v := child.Uint64()
		for _, p := range parentNext {
			if v == p {
				collisions++
			}
		}
	}
	if collisions > 0 {
		t.Fatalf("child stream collided with parent stream %d times", collisions)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(4)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from expected %.0f", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(8)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestNormalClamped(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.NormalClamped(5, 10, 0, 7)
		if v < 0 || v > 7 {
			t.Fatalf("NormalClamped escaped bounds: %v", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(10)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("Uniform(3,9) = %v out of range", v)
		}
	}
}

func TestParetoMinimum(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto(2, 1.5) = %v below xm", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(12)
	f := func(n uint8) bool {
		m := int(n % 64)
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRNG(13)
	z := NewZipf(r, 100, 1.1)
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Rank 0 of a Zipf(1.1) over 100 items should take a large share.
	if frac := float64(counts[0]) / draws; frac < 0.10 {
		t.Errorf("Zipf head share = %v, want > 0.10", frac)
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(14)
	for _, tc := range []struct {
		n int64
		s float64
	}{{0, 1.1}, {10, 0}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(r, tc.n, tc.s)
		}()
	}
}

func TestShuffle(t *testing.T) {
	r := NewRNG(15)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 45 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
	_ = orig
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1 << 20)
	}
}
