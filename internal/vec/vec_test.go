package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"unit", []float64{1, 0}, []float64{0, 1}, 0},
		{"simple", []float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{"negative", []float64{-1, 2}, []float64{3, -4}, -11},
		{"single", []float64{2.5}, []float64{4}, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dot(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths should panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 2, 3}
	Axpy(2, []float64{10, 20, 30}, dst)
	want := []float64{21, 42, 63}
	if !Equal(dst, want, 1e-12) {
		t.Errorf("Axpy = %v, want %v", dst, want)
	}
}

func TestScale(t *testing.T) {
	dst := []float64{1, -2, 3}
	Scale(-0.5, dst)
	want := []float64{-0.5, 1, -1.5}
	if !Equal(dst, want, 1e-12) {
		t.Errorf("Scale = %v, want %v", dst, want)
	}
}

func TestScaleAxpyMatchesTwoStep(t *testing.T) {
	// ScaleAxpy(beta, dst, alpha, x) must equal Scale(beta) then Axpy(alpha, x).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(16)
		dst1 := NewRandUniform(rng, n)
		x := NewRandUniform(rng, n)
		dst2 := Copy(dst1)
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()

		ScaleAxpy(beta, dst1, alpha, x)
		Scale(beta, dst2)
		Axpy(alpha, x, dst2)
		if !Equal(dst1, dst2, 1e-12) {
			t.Fatalf("trial %d: ScaleAxpy %v != two-step %v", trial, dst1, dst2)
		}
	}
}

func TestAddSub(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := Add(a, b); !Equal(got, []float64{4, 7}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(a, b); !Equal(got, []float64{-2, -3}, 0) {
		t.Errorf("Sub = %v", got)
	}
	// inputs untouched
	if !Equal(a, []float64{1, 2}, 0) || !Equal(b, []float64{3, 5}, 0) {
		t.Error("Add/Sub mutated inputs")
	}
}

func TestCopyIndependence(t *testing.T) {
	a := []float64{1, 2, 3}
	c := Copy(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("Copy is not independent")
	}
}

func TestNorm2(t *testing.T) {
	tests := []struct {
		a    []float64
		want float64
	}{
		{[]float64{3, 4}, 5},
		{[]float64{0, 0, 0}, 0},
		{[]float64{1}, 1},
		{[]float64{-2, 0, 0}, 2},
	}
	for _, tt := range tests {
		if got := Norm2(tt.a); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Norm2(%v) = %v, want %v", tt.a, got, tt.want)
		}
	}
}

func TestNorm2NoOverflow(t *testing.T) {
	big := math.MaxFloat64 / 2
	got := Norm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("Norm2 overflowed: %v", got)
	}
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Norm2 = %v, want %v", got, want)
	}
}

func TestDist(t *testing.T) {
	a := []float64{1, 1}
	b := []float64{4, 5}
	if got := Dist(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := Dist(a, a); got != 0 {
		t.Errorf("Dist(a,a) = %v, want 0", got)
	}
}

func TestRandUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := NewRandUniform(rng, 1000)
	for i, v := range a {
		if v < 0 || v >= 1 {
			t.Fatalf("element %d out of [0,1): %v", i, v)
		}
	}
	// Mean should be near 0.5 for 1000 draws.
	var sum float64
	for _, v := range a {
		sum += v
	}
	if mean := sum / 1000; math.Abs(mean-0.5) > 0.05 {
		t.Errorf("mean = %v, too far from 0.5", mean)
	}
}

func TestRandUniformDeterministic(t *testing.T) {
	a := NewRandUniform(rand.New(rand.NewSource(7)), 16)
	b := NewRandUniform(rand.New(rand.NewSource(7)), 16)
	if !Equal(a, b, 0) {
		t.Error("same seed should give identical vectors")
	}
}

func TestHasNaN(t *testing.T) {
	tests := []struct {
		a    []float64
		want bool
	}{
		{[]float64{1, 2, 3}, false},
		{[]float64{1, math.NaN()}, true},
		{[]float64{math.Inf(1)}, true},
		{[]float64{math.Inf(-1), 0}, true},
		{nil, false},
	}
	for _, tt := range tests {
		if got := HasNaN(tt.a); got != tt.want {
			t.Errorf("HasNaN(%v) = %v, want %v", tt.a, got, tt.want)
		}
	}
}

func TestClamp(t *testing.T) {
	a := []float64{-10, -1, 0, 1, 10}
	Clamp(a, 2)
	want := []float64{-2, -1, 0, 1, 2}
	if !Equal(a, want, 0) {
		t.Errorf("Clamp = %v, want %v", a, want)
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if Equal([]float64{1}, []float64{1, 2}, 1) {
		t.Error("Equal should be false for different lengths")
	}
}

// Property: Dot is symmetric and bilinear.
func TestDotPropertySymmetricBilinear(t *testing.T) {
	f := func(seed int64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			alpha = 1.5
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := NewRandUniform(rng, n)
		b := NewRandUniform(rng, n)
		c := NewRandUniform(rng, n)
		// symmetry
		if math.Abs(Dot(a, b)-Dot(b, a)) > 1e-9 {
			return false
		}
		// linearity in first argument: (alpha*a + c)·b = alpha*(a·b) + c·b
		scaled := Copy(a)
		Scale(alpha, scaled)
		lhs := Dot(Add(scaled, c), b)
		rhs := alpha*Dot(a, b) + Dot(c, b)
		return math.Abs(lhs-rhs) <= 1e-6*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz |a·b| <= ‖a‖‖b‖.
func TestDotPropertyCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := NewRandUniform(rng, n)
		b := NewRandUniform(rng, n)
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Dist.
func TestDistPropertyTriangle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := NewRandUniform(rng, n)
		b := NewRandUniform(rng, n)
		c := NewRandUniform(rng, n)
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SqNorm(a) == Dot(a,a) == Norm2(a)^2.
func TestNormPropertyConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := NewRandUniform(rng, n)
		n2 := Norm2(a)
		return math.Abs(SqNorm(a)-n2*n2) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := NewRandUniform(rng, 10) // rank r=10, the paper's default
	y := NewRandUniform(rng, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkScaleAxpy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := NewRandUniform(rng, 10)
	dst := NewRandUniform(rng, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScaleAxpy(0.99, dst, -0.1, x)
	}
}

// --- Unrolled-kernel bit-identity ---
//
// The Dot/ScaleAxpy/Axpy unrolls (and their rank-10 fast paths) must be
// bit-identical to the naive reference loops: a single float64 accumulator
// updated in ascending index order. Any reassociation of the summation
// would change fixed-seed experiment outputs.

func refDot(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

func refScaleAxpy(beta float64, dst []float64, alpha float64, x []float64) {
	for i, xv := range x {
		dst[i] = beta*dst[i] + alpha*xv
	}
}

func refAxpy(alpha float64, x, dst []float64) {
	for i, xv := range x {
		dst[i] += alpha * xv
	}
}

// randSigned fills a vector with signed values spread over several orders
// of magnitude, where float64 rounding differences would show up.
func randSigned(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return out
}

func TestDotBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 50; trial++ {
			a := randSigned(rng, n)
			b := randSigned(rng, n)
			got, want := Dot(a, b), refDot(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trial=%d: Dot=%x ref=%x", n, trial,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestScaleAxpyBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 50; trial++ {
			x := randSigned(rng, n)
			dst := randSigned(rng, n)
			ref := append([]float64(nil), dst...)
			beta, alpha := rng.Float64()*2-1, rng.Float64()*2-1
			ScaleAxpy(beta, dst, alpha, x)
			refScaleAxpy(beta, ref, alpha, x)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("n=%d trial=%d i=%d: got %x ref %x", n, trial, i,
						math.Float64bits(dst[i]), math.Float64bits(ref[i]))
				}
			}
		}
	}
}

func TestAxpyBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 50; trial++ {
			x := randSigned(rng, n)
			dst := randSigned(rng, n)
			ref := append([]float64(nil), dst...)
			alpha := rng.Float64()*2 - 1
			Axpy(alpha, x, dst)
			refAxpy(alpha, x, ref)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("n=%d trial=%d i=%d: got %x ref %x", n, trial, i,
						math.Float64bits(dst[i]), math.Float64bits(ref[i]))
				}
			}
		}
	}
}

func BenchmarkDotRank16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := NewRandUniform(rng, 16)
	y := NewRandUniform(rng, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}
