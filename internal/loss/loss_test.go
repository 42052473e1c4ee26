package loss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{L2, "l2"},
		{Hinge, "hinge"},
		{Logistic, "logistic"},
		{Kind(99), "loss.Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", uint8(tt.k), got, tt.want)
		}
	}
}

func TestIsClassification(t *testing.T) {
	if L2.IsClassification() {
		t.Error("L2 should not be a classification loss")
	}
	if !Hinge.IsClassification() || !Logistic.IsClassification() {
		t.Error("hinge and logistic are classification losses")
	}
}

func TestL2Value(t *testing.T) {
	tests := []struct {
		x, xhat, want float64
	}{
		{1, 1, 0},
		{1, 0, 1},
		{3, 1, 4},
		{-1, 1, 4},
		{100, 90, 100},
	}
	for _, tt := range tests {
		if got := L2.Value(tt.x, tt.xhat); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("L2.Value(%v,%v) = %v, want %v", tt.x, tt.xhat, got, tt.want)
		}
	}
}

func TestHingeValue(t *testing.T) {
	tests := []struct {
		x, xhat, want float64
	}{
		{1, 2, 0},     // well classified, beyond margin
		{1, 1, 0},     // exactly on margin
		{1, 0.5, 0.5}, // inside margin
		{1, 0, 1},
		{1, -1, 2},  // misclassified
		{-1, -2, 0}, // negative class, correct
		{-1, 1, 2},  // negative class, wrong
	}
	for _, tt := range tests {
		if got := Hinge.Value(tt.x, tt.xhat); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Hinge.Value(%v,%v) = %v, want %v", tt.x, tt.xhat, got, tt.want)
		}
	}
}

func TestLogisticValue(t *testing.T) {
	// ln(1+e^0) = ln 2 at x·x̂ = 0.
	if got := Logistic.Value(1, 0); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("Logistic.Value(1,0) = %v, want ln2", got)
	}
	// Symmetric in the product: l(1, z) == l(-1, -z).
	for _, z := range []float64{-3, -0.5, 0, 0.5, 3} {
		a := Logistic.Value(1, z)
		b := Logistic.Value(-1, -z)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("logistic not symmetric at z=%v: %v vs %v", z, a, b)
		}
	}
	// Monotone decreasing in the margin x·x̂.
	prev := math.Inf(1)
	for _, z := range []float64{-5, -1, 0, 1, 5} {
		v := Logistic.Value(1, z)
		if v >= prev {
			t.Errorf("logistic not decreasing at z=%v", z)
		}
		prev = v
	}
}

func TestLogisticValueExtremes(t *testing.T) {
	// Large positive margin → loss ≈ 0 without NaN.
	if got := Logistic.Value(1, 1000); got < 0 || math.IsNaN(got) || got > 1e-10 {
		t.Errorf("Logistic at huge margin = %v", got)
	}
	// Large negative margin → loss ≈ |margin| without overflow.
	if got := Logistic.Value(1, -1000); math.IsInf(got, 0) || math.Abs(got-1000) > 1e-6 {
		t.Errorf("Logistic at huge negative margin = %v, want ≈1000", got)
	}
}

func TestHingeScalarZeroWhenCorrect(t *testing.T) {
	// Correctly classified beyond margin: zero gradient (§5.2.3).
	if g := Hinge.Scalar(1, 1.5); g != 0 {
		t.Errorf("Hinge.Scalar(1,1.5) = %v, want 0", g)
	}
	if g := Hinge.Scalar(-1, -1.5); g != 0 {
		t.Errorf("Hinge.Scalar(-1,-1.5) = %v, want 0", g)
	}
	// Misclassified: gradient scalar is −x.
	if g := Hinge.Scalar(1, -0.2); g != -1 {
		t.Errorf("Hinge.Scalar(1,-0.2) = %v, want -1", g)
	}
	if g := Hinge.Scalar(-1, 0.2); g != 1 {
		t.Errorf("Hinge.Scalar(-1,0.2) = %v, want 1", g)
	}
}

func TestLogisticScalarMatchesPaper(t *testing.T) {
	// Eq. 16: dl/du = −x·v/(1+e^{x·u·vᵀ}); scalar = −x/(1+e^{x·x̂}).
	for _, tt := range []struct{ x, xhat float64 }{
		{1, 0}, {1, 2}, {-1, 0.3}, {-1, -4}, {1, -7},
	} {
		want := -tt.x / (1 + math.Exp(tt.x*tt.xhat))
		got := Logistic.Scalar(tt.x, tt.xhat)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Logistic.Scalar(%v,%v) = %v, want %v", tt.x, tt.xhat, got, want)
		}
	}
}

func TestL2ScalarMatchesPaper(t *testing.T) {
	// Eq. 18: dl/du = −(x−u·vᵀ)·v; scalar = x̂−x.
	if got := L2.Scalar(3, 1); got != -2 {
		t.Errorf("L2.Scalar(3,1) = %v, want -2", got)
	}
	if got := L2.Scalar(-1, 0.5); got != 1.5 {
		t.Errorf("L2.Scalar(-1,0.5) = %v, want 1.5", got)
	}
}

// Property: the gradient scalar matches a central finite difference of the
// loss value with respect to x̂, for every differentiable point. This pins
// the analytic gradients to the loss definitions. Note the paper drops the
// factor 2 on the L2 gradient, so we compare against d/dx̂ (x−x̂)²/2 for L2.
func TestScalarPropertyFiniteDifference(t *testing.T) {
	const h = 1e-6
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := float64(1)
		if rng.Intn(2) == 0 {
			x = -1
		}
		xhat := rng.NormFloat64() * 3
		for _, k := range Kinds() {
			if k == Hinge && math.Abs(1-x*xhat) < 1e-3 {
				continue // kink: subgradient, skip
			}
			num := (k.Value(x, xhat+h) - k.Value(x, xhat-h)) / (2 * h)
			if k == L2 {
				num /= 2 // paper drops the factor 2
			}
			got := k.Scalar(x, xhat)
			if math.Abs(num-got) > 1e-4*(1+math.Abs(num)) {
				t.Logf("%v: x=%v xhat=%v numeric=%v analytic=%v", k, x, xhat, num, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: classification losses penalize the wrong sign more than the
// right sign, for any magnitude (paper §4.1: "values of x·x̂ lower than 1
// are strongly penalized and otherwise less or not penalized").
func TestClassificationPropertySignSensitivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mag := rng.Float64()*5 + 0.01
		for _, k := range ClassificationKinds() {
			if k.Value(1, mag) >= k.Value(1, -mag) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: loss values are never negative and never NaN.
func TestValuePropertyNonNegativeFinite(t *testing.T) {
	f := func(x, xhat float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(xhat) || math.IsInf(xhat, 0) {
			return true
		}
		// keep magnitudes physical
		x = math.Mod(x, 100)
		xhat = math.Mod(xhat, 100)
		for _, k := range Kinds() {
			v := k.Value(x, xhat)
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSigmoidStability(t *testing.T) {
	for _, z := range []float64{-750, -100, -1, 0, 1, 100, 750} {
		s := sigmoid(z)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Errorf("sigmoid(%v) = %v out of [0,1]", z, s)
		}
	}
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-15 {
		t.Errorf("sigmoid(0) = %v, want 0.5", s)
	}
}

func BenchmarkScalarLogistic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Logistic.Scalar(1, float64(i%7)-3)
	}
}

func BenchmarkScalarHinge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Hinge.Scalar(1, float64(i%7)-3)
	}
}
